package freelist

import (
	"sync"
	"sync/atomic"
	"testing"
)

// item is a sized buffer stand-in that knows whether it is held.
type item struct {
	size int
	held atomic.Bool
}

func newItems(made *atomic.Int64) *List[*item] {
	return &List[*item]{
		New: func(n int) *item {
			if made != nil {
				made.Add(1)
			}
			return &item{size: n}
		},
		Size: func(it *item) int { return it.size },
	}
}

// TestListParallelGetPut has goroutines borrow items of assorted sizes
// and hand them back: no item may be held by two at once, none may be
// smaller than its request, and the list may keep no more items than
// were out at once.
func TestListParallelGetPut(t *testing.T) {
	const goroutines, rounds = 8, 2000
	l := newItems(nil)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				n := 1 + (g*7+k*13)%64
				it := l.Get(n)
				if !it.held.CompareAndSwap(false, true) {
					t.Error("an item was handed out while held")
					return
				}
				if it.size < n {
					t.Errorf("got an item of size %d for a request of %d", it.size, n)
				}
				it.held.Store(false)
				l.Put(it)
			}
		}()
	}
	wg.Wait()
	if idle := l.Idle(); idle > goroutines {
		t.Errorf("%d idle items after at most %d were out at once", idle, goroutines)
	}
}

// TestListAnyGoroutineGetsAnyIdleItem lists items from goroutines of
// their own and borrows them all back from another: every Get must hit.
func TestListAnyGoroutineGetsAnyIdleItem(t *testing.T) {
	const k = 16
	var made atomic.Int64
	l := newItems(&made)
	items := make([]*item, k)
	for i := range items {
		items[i] = l.Get(32)
	}
	for _, it := range items {
		done := make(chan struct{})
		go func() {
			defer close(done)
			l.Put(it)
		}()
		<-done
	}
	got := make(map[*item]bool)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < k; i++ {
			got[l.Get(32)] = true
		}
	}()
	<-done
	if made.Load() != k || len(got) != k {
		t.Fatalf("borrowing %d listed items back made %d new ones and returned %d distinct", k, made.Load()-k, len(got))
	}
	for _, it := range items {
		if !got[it] {
			t.Fatal("a listed item was not handed out")
		}
	}
}

// TestListTooSmallStaysListed checks the retention rule: an idle item
// too small for a request stays listed for a smaller one, and only when
// the larger item comes back, leaving more items than were ever out at
// once, is the smallest dropped.
func TestListTooSmallStaysListed(t *testing.T) {
	l := newItems(nil)
	small := l.Get(10)
	l.Put(small)
	big := l.Get(100)
	if big == small {
		t.Fatal("an item of size 10 was handed out for a request of 100")
	}
	if l.Idle() != 1 {
		t.Fatalf("%d idle items after a request none fit, want the small one still listed", l.Idle())
	}
	if got := l.Get(5); got != small {
		t.Fatal("a smaller request did not get the listed small item")
	}
	l.Put(small)
	l.Put(big)
	if l.Idle() != 2 {
		t.Fatalf("%d idle items after two were out at once, want 2", l.Idle())
	}

	// One out at a time: the large item replaces the small one.
	l = newItems(nil)
	small = l.Get(10)
	l.Put(small)
	big = l.Get(100)
	l.Put(big)
	if l.Idle() != 1 {
		t.Fatalf("%d idle items after one was out at a time, want 1", l.Idle())
	}
	if got := l.Get(5); got != big {
		t.Fatal("the list kept the smaller item")
	}
}

// TestListNilSize checks a list of items that grow in place: any idle
// item serves any request.
func TestListNilSize(t *testing.T) {
	var made atomic.Int64
	l := newItems(&made)
	l.Size = nil
	a := l.Get(10)
	l.Put(a)
	if got := l.Get(1000); got != a || made.Load() != 1 {
		t.Fatal("an idle item was not handed out for a larger request")
	}
}
