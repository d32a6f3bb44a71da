// Package freelist keeps idle buffers for reuse by any goroutine.
//
// A sync.Pool keeps a private slot per P, so a Get on one P misses the
// buffer the last Put left on another, and the garbage collector empties
// it. For buffers that scale with a batch or an estimator count, each
// miss allocates one again. A List is a plain mutex-guarded list
// instead: every Get sees every idle buffer, whichever goroutine listed
// it, and the collector never empties it.
package freelist

import (
	"math"
	"slices"
	"sync"
)

// List is a free list of items of type T, typically buffers. Get hands
// out an idle item that fits a request, or a new one; Put lists it as
// idle again. No item is ever handed out to two holders at once.
//
// Retention: a List holds no more items than were out at once. A
// request no idle item fits gets a new item and leaves the idle ones
// listed for smaller requests; when the new item comes back, the
// smallest idle item is dropped instead. So the idle items are as many
// as were in use at once, each at the largest size it served, for as
// long as the List lives.
//
// The zero value of a List with New set is an empty list.
type List[T any] struct {
	// New returns a new item for a request of size n that no idle item
	// fits.
	New func(n int) T
	// Size reports an item's size; Get(n) hands out only items of size
	// at least n. Nil means every item fits every request, for items
	// that grow in place.
	Size func(T) int

	mu   sync.Mutex
	idle []idleItem[T]
	out  int // items handed out and not put back
	peak int // the most items out at once
}

// idleItem is a listed item and its size, taken when it was put.
type idleItem[T any] struct {
	x    T
	size int
}

// Get returns the most recently listed idle item that fits a request
// of size n, taking it off the list, or else a new item from New.
func (l *List[T]) Get(n int) T {
	l.mu.Lock()
	l.out++
	l.peak = max(l.peak, l.out)
	for i := len(l.idle) - 1; i >= 0; i-- {
		if it := l.idle[i]; it.size >= n {
			l.idle = slices.Delete(l.idle, i, i+1)
			l.mu.Unlock()
			return it.x
		}
	}
	l.mu.Unlock()
	return l.New(n)
}

// Put lists x, an item Get returned, as idle. The caller must not use x
// after.
func (l *List[T]) Put(x T) {
	size := math.MaxInt
	if l.Size != nil {
		size = l.Size(x)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.out--
	l.idle = append(l.idle, idleItem[T]{x: x, size: size})
	// Only a Get that no idle item fits makes the items outnumber the
	// peak.
	for l.out+len(l.idle) > l.peak {
		small := 0
		for i, it := range l.idle {
			if it.size < l.idle[small].size {
				small = i
			}
		}
		l.idle = slices.Delete(l.idle, small, small+1)
	}
}

// Idle returns how many items are listed as idle.
func (l *List[T]) Idle() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.idle)
}
