package main

import (
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"histanon/internal/generalize"
	"histanon/internal/httpapi"
	"histanon/internal/mixzone"
	"histanon/internal/phl"
	"histanon/internal/resilience"
	"histanon/internal/slo"
	"histanon/internal/stindex"
	"histanon/internal/storage"
	"histanon/internal/ts"
	"histanon/internal/wire"
)

// navTolerance is the navigation service's tolerance: the comparison
// harness's 2 km × 2 km × 30 min bound. Other services are unlimited.
var navTolerance = generalize.Tolerance{MaxWidth: 2000, MaxHeight: 2000, MaxDuration: 1800}

// toleranceFor is the tolerance the server applies to a service.
func toleranceFor(service string) generalize.Tolerance {
	if service == "navigation" {
		return navTolerance
	}
	return generalize.Unlimited
}

// sloOptions are lbserve's default -slo-objective and -slo-windows.
func sloOptions() slo.Options {
	objectives, err := slo.ParseObjectives("below_k<0.1%")
	if err != nil {
		panic(err)
	}
	windows, err := slo.ParseWindows("1m,10m,1h")
	if err != nil {
		panic(err)
	}
	return slo.Options{Windows: windows, Objectives: objectives}
}

// target is one trusted server as lbserve builds it by default, with a
// navigation service, an in-process SP and per-user inboxes, serving
// HTTP on a loopback port.
type target struct {
	srv     *ts.Server
	outbox  *resilience.Outbox
	tiered  *storage.TieredStore
	dir     string
	httpSrv *http.Server
	served  chan struct{}
	url     string
	sp      *provider
	inbox   *inboxLog
}

// provider is the in-process service provider: it answers every
// forwarded request through Server.DeliverResponse and keeps no log.
// withhold, when positive, names the one delivery (1-based) whose
// answer it drops — the self-test's planted fault.
type provider struct {
	srv       *ts.Server
	delivered atomic.Int64
	withhold  int64
}

func (p *provider) deliver(req *wire.Request) error {
	if p.delivered.Add(1) == p.withhold {
		return nil
	}
	p.srv.DeliverResponse(&wire.Response{ID: req.ID, Service: req.Service})
	return nil
}

// build constructs and starts a target. lay, when non-nil, installs the
// traced run's timing decorators at the server's seams. A durable
// target opens a fresh storage directory under workdir.
func build(agents int, durable bool, workdir string, withhold int64, lay *layers, inbox *inboxLog) (*target, error) {
	t := &target{sp: &provider{withhold: withhold}, inbox: inbox}
	cfg := ts.Config{
		DefaultPolicy: ts.Policy{K: 5},
		OnDemand: mixzone.OnDemand{
			Quiet:          600,
			Divergence:     mixzone.Divergence{MinAngle: 0.3},
			FallbackRadius: 800,
		},
		Services: map[string]ts.ServiceSpec{
			"navigation": {Name: "navigation", Tolerance: navTolerance},
		},
		SLO: sloOptions(),
	}
	if durable {
		dir, err := os.MkdirTemp(workdir, "durable-")
		if err != nil {
			return nil, err
		}
		st, _, err := storage.Open(storage.Options{
			Dir:              dir,
			FS:               noSyncFS{},
			Sync:             storage.SyncNone,
			HotWindow:        3600,
			ColdCacheEntries: 1024,
		})
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		t.tiered, t.dir = st, dir
		cfg.Store = st
	}

	var sink resilience.Delivery = resilience.DeliveryFunc(t.sp.deliver)
	if lay != nil {
		sink = lay.timedSink(t.sp.deliver)
	}
	t.outbox = resilience.NewOutbox(sink, resilience.Options{
		QueueSize:   1024,
		Workers:     4,
		Deadline:    5 * time.Second,
		MaxAttempts: 4,
		Breaker:     resilience.BreakerConfig{FailureThreshold: 5, OpenFor: 5 * time.Second},
	})
	var out ts.Outbox = t.outbox
	if lay != nil {
		// The same defaults ts.New would pick, made explicit so the
		// decorators can sit in front of them.
		var store phl.Storer = phl.NewStore()
		var index stindex.Index = stindex.NewGrid(500, 900)
		if t.tiered != nil {
			store, index = t.tiered, t.tiered
		}
		cfg.Store, cfg.Index = lay.wrapStore(store), lay.wrapIndex(index)
		out = &timedOutbox{inner: t.outbox, l: lay}
	}
	t.srv = ts.New(cfg, out)
	t.sp.srv = t.srv
	t.srv.SLO.SetEnabled(true)
	if lay != nil {
		t.srv.Obs.Tracer.SetSampleRate(1)
	} else {
		t.srv.Obs.Tracer.SetSampleRate(0)
	}
	t.outbox.SetSpanSink(t.srv.Obs)
	for u := 0; u < agents; u++ {
		t.srv.SetInbox(phl.UserID(u), inbox.receiver(u))
	}

	h := httpapi.New(t.srv)
	h.SetMaxInFlight(256)
	h.SetMaxBodyBytes(httpapi.DefaultMaxBodyBytes)
	h.SetWireBatch(true)
	h.SetWireBatchMaxBodyBytes(wire.MaxFrameBytes + 16)
	h.SetOutbox(t.outbox)
	if t.tiered != nil {
		h.SetStorage(t.tiered)
	}
	var handler http.Handler = h
	if lay != nil {
		handler = &timedHandler{inner: h, l: lay}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.close()
		return nil, err
	}
	t.httpSrv = &http.Server{
		Handler:           handler,
		ReadTimeout:       10 * time.Second,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      10 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	t.served = make(chan struct{})
	go func() {
		defer close(t.served)
		_ = t.httpSrv.Serve(ln)
	}()
	t.url = "http://" + ln.Addr().String()
	return t, nil
}

// noSyncFS is the operating system's filesystem with fsync made a
// no-op. The durable store writes and reads its WAL and snapshot files
// through the page cache as in production, but its snapshot
// maintenance, which fsyncs a file and the directory while holding the
// store's lock, no longer waits on a disk shared with other machines:
// SyncNone alone leaves those fsyncs in.
type noSyncFS struct{ storage.OSFS }

func (fs noSyncFS) Create(name string) (storage.File, error) {
	f, err := fs.OSFS.Create(name)
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

func (noSyncFS) SyncDir(string) error { return nil }

type noSyncFile struct{ storage.File }

func (noSyncFile) Sync() error { return nil }

// close stops the listener, drains the outbox and closes and removes
// the durable store, waiting for every goroutine it started.
func (t *target) close() {
	if t.httpSrv != nil {
		t.httpSrv.Close()
		<-t.served
	}
	if t.outbox != nil {
		t.outbox.Close()
	}
	if t.tiered != nil {
		t.tiered.Close()
		os.RemoveAll(t.dir)
	}
}

// inboxLog is every user's device inbox: it records which answer
// (msgid) arrived when, in nanoseconds since base.
type inboxLog struct {
	base  time.Time
	users []userInbox
	total atomic.Int64
	lay   *layers
}

type userInbox struct {
	mu  sync.Mutex
	ids []wire.MsgID
	at  []int64
}

func newInboxLog(agents int, base time.Time, lay *layers) *inboxLog {
	return &inboxLog{base: base, users: make([]userInbox, agents), lay: lay}
}

func (l *inboxLog) receiver(u int) ts.Inbox {
	in := &l.users[u]
	return ts.InboxFunc(func(resp *wire.Response) {
		now := time.Since(l.base).Nanoseconds()
		if l.lay != nil {
			l.lay.received(resp.ID)
		}
		in.mu.Lock()
		in.ids = append(in.ids, resp.ID)
		in.at = append(in.at, now)
		in.mu.Unlock()
		l.total.Add(1)
	})
}

// answers returns user u's answer arrival times in msgid order. A user's
// requests travel on one connection and serialize in the server, so
// msgid order is the order the user sent its forwarded requests.
func (l *inboxLog) answers(u int) []int64 {
	in := &l.users[u]
	in.mu.Lock()
	defer in.mu.Unlock()
	idx := make([]int, len(in.ids))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return in.ids[idx[a]] < in.ids[idx[b]] })
	out := make([]int64, len(idx))
	for i, j := range idx {
		out[i] = in.at[j]
	}
	return out
}
