package pseudonym

import (
	"sync"
	"testing"

	"histanon/internal/phl"
)

func TestCurrentStable(t *testing.T) {
	m := NewManager()
	p1 := m.Current(1)
	if p1 == "" {
		t.Fatal("empty pseudonym")
	}
	if m.Current(1) != p1 {
		t.Fatal("Current must be stable between rotations")
	}
	if m.Current(2) == p1 {
		t.Fatal("distinct users must get distinct pseudonyms")
	}
}

func TestRotate(t *testing.T) {
	m := NewManager()
	p1 := m.Current(1)
	old, fresh := m.Rotate(1)
	if old != p1 {
		t.Fatalf("old=%q want %q", old, p1)
	}
	if fresh == p1 || fresh == "" {
		t.Fatalf("fresh=%q", fresh)
	}
	if m.Current(1) != fresh {
		t.Fatal("Current must return the rotated pseudonym")
	}
	if m.Rotations(1) != 1 || m.Rotations(2) != 0 {
		t.Fatalf("Rotations: %d,%d", m.Rotations(1), m.Rotations(2))
	}
}

func TestRotateWithoutPrior(t *testing.T) {
	m := NewManager()
	old, fresh := m.Rotate(7)
	if old != "" || fresh == "" {
		t.Fatalf("old=%q fresh=%q", old, fresh)
	}
	if m.Rotations(7) != 0 {
		t.Fatal("rotation without a prior pseudonym is an assignment")
	}
}

func TestUniquenessAcrossRotations(t *testing.T) {
	m := NewManager()
	seen := map[string]bool{}
	for u := phl.UserID(0); u < 20; u++ {
		p := string(m.Current(u))
		if seen[p] {
			t.Fatalf("pseudonym %q reused", p)
		}
		seen[p] = true
		for i := 0; i < 5; i++ {
			_, fresh := m.Rotate(u)
			if seen[string(fresh)] {
				t.Fatalf("pseudonym %q reused after rotation", fresh)
			}
			seen[string(fresh)] = true
		}
	}
}

func TestConcurrent(t *testing.T) {
	m := NewManager()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				u := phl.UserID(i % 5)
				m.Current(u)
				if i%10 == 0 {
					m.Rotate(u)
				}
			}
		}(g)
	}
	wg.Wait()
	// Every goroutine rotated user 0 (i%10 == 0 implies i%5 == 0) 20
	// times, each after a Current: no rotation may be lost.
	if got := m.Rotations(0); got != 8*20 {
		t.Fatalf("Rotations(0) = %d, want %d", got, 8*20)
	}
}
