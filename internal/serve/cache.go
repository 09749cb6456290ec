package serve

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
)

// lruCache is a mutex-guarded LRU map with hit/miss counters, the
// verdict cache's store.
type lruCache[K comparable, V any] struct {
	mu     sync.Mutex
	cap    int
	order  *list.List // front = most recent
	items  map[K]*list.Element
	hits   atomic.Uint64
	misses atomic.Uint64
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

func newLRU[K comparable, V any](capacity int) *lruCache[K, V] {
	if capacity <= 0 {
		capacity = 1
	}
	return &lruCache[K, V]{
		cap:   capacity,
		order: list.New(),
		items: make(map[K]*list.Element, capacity),
	}
}

// Get returns the cached value and whether it was present, promoting
// the entry on hit.
func (c *lruCache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses.Add(1)
		var zero V
		return zero, false
	}
	c.hits.Add(1)
	c.order.MoveToFront(el)
	return el.Value.(lruEntry[K, V]).val, true
}

// Put inserts or refreshes key, evicting the least recently used entry
// when the cache is full.
func (c *lruCache[K, V]) Put(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value = lruEntry[K, V]{key: key, val: val}
		c.order.MoveToFront(el)
		return
	}
	if c.order.Len() >= c.cap {
		back := c.order.Back()
		if back != nil {
			c.order.Remove(back)
			delete(c.items, back.Value.(lruEntry[K, V]).key)
		}
	}
	c.items[key] = c.order.PushFront(lruEntry[K, V]{key: key, val: val})
}

// Len returns the number of cached entries.
func (c *lruCache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Counters returns the lifetime hit and miss counts.
func (c *lruCache[K, V]) Counters() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// flightGroup deduplicates concurrent identical work: all callers that
// Do the same key while one computation is in flight share its result
// instead of repeating it (the classic singleflight pattern, stdlib
// only).
type flightGroup[K comparable, V any] struct {
	mu    sync.Mutex
	calls map[K]*flightCall[V]
}

type flightCall[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Do runs fn once per concurrent key; duplicate callers block and
// receive the leader's result. A follower whose own context expires
// unblocks immediately with its ctx error instead of waiting out the
// leader. shared reports whether the caller got a deduplicated result
// rather than running fn itself.
func (g *flightGroup[K, V]) Do(ctx context.Context, key K, fn func() (V, error)) (val V, err error, shared bool) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[K]*flightCall[V])
	}
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		select {
		case <-c.done:
			return c.val, c.err, true
		case <-ctx.Done():
			var zero V
			return zero, ctx.Err(), true
		}
	}
	c := &flightCall[V]{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	c.val, c.err = fn()
	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	close(c.done)
	return c.val, c.err, false
}
