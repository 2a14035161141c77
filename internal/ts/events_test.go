package ts

import (
	"reflect"
	"sync"
	"testing"
)

func TestCounters(t *testing.T) {
	var c Counters
	c.inc(evForwarded)
	c.inc(evResponses)
	c.inc(evForwarded)
	if c.Get("forwarded") != 2 || c.Get("responses") != 1 || c.Get("requests") != 0 || c.Get("nope") != 0 {
		t.Fatalf("counters wrong: %s", &c)
	}
	if got := c.Names(); !reflect.DeepEqual(got, []string{"forwarded", "responses"}) {
		t.Fatalf("Names=%v", got)
	}
	if got := c.String(); got != "forwarded=2 responses=1" {
		t.Fatalf("String=%q", got)
	}
}

func TestCountersConcurrent(t *testing.T) {
	var c Counters
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.inc(evRequests)
				if i%100 == 0 {
					_ = c.String()
				}
			}
		}()
	}
	wg.Wait()
	if got := c.Get("requests"); got != 8000 {
		t.Fatalf("requests=%d", got)
	}
}
