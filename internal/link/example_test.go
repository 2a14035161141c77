package link_test

import (
	"fmt"

	"histanon/internal/geo"
	"histanon/internal/link"
	"histanon/internal/wire"
)

// The linkability framework of Def. 4/5: the tracking linker joins
// requests whose contexts form a physically plausible trajectory, even
// across pseudonyms; a link-connected set is the attacker's view of
// "probably the same person".
func Example() {
	at := func(id int64, ps string, x float64, t int64) *wire.Request {
		return &wire.Request{
			ID:        wire.MsgID(id),
			Pseudonym: wire.Pseudonym(ps),
			Context: geo.STBox{
				Area: geo.RectAround(geo.Point{X: x}),
				Time: geo.IntervalAround(t),
			},
		}
	}
	// A walker heading east, rotating pseudonyms mid-way, and an
	// unrelated request far away.
	reqs := []*wire.Request{
		at(1, "old", 0, 0),
		at(2, "old", 60, 60),
		at(3, "new", 120, 120), // pseudonym changed, trajectory continuous
		at(4, "other", 50000, 100),
	}
	f := link.Max{link.Pseudonym{}, link.Tracking{MaxSpeed: 2, HalfLife: 3600}}
	fmt.Println("walker link-connected:", link.IsLinkConnected(reqs[:3], f, 0.7))
	fmt.Println("with the far request:", link.IsLinkConnected(reqs, f, 0.7))
	fmt.Printf("cross-pseudonym link: %.2f\n", f.Likelihood(reqs[1], reqs[2]))
	// Output:
	// walker link-connected: true
	// with the far request: false
	// cross-pseudonym link: 0.99
}
