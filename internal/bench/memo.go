package bench

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// memo is the harness's one memo type: the result cache, the front-end
// memo and each program's back-end memo are instances of it.
//
// It is a single-flight table bounded in entries. The first request
// for a key computes its value; concurrent requests for the key wait
// for that computation and share its outcome. Completed entries are
// kept in least-recently-used order, a hit refreshing its entry, and
// past max the least recently used one is dropped. An entry in flight
// is never dropped, so the table may exceed max by the computations in
// flight; waiters hold the entry itself, so a drop never changes what
// they read.
//
// A computation whose requester's context ended, or whose error is
// transient, is never kept: its entry leaves the table before its
// waiters wake, and each waiter whose own context is still live tries
// again, so a client giving up never poisons the table. Other errors
// are kept when keepErr is set; otherwise the waiters share them and
// later requests compute again. A nil memo keeps nothing and always
// computes.
type memo[K comparable, V any] struct {
	max     int
	keepErr bool
	// evicted, when non-nil, receives each value dropped for the bound,
	// with the memo's lock held.
	evicted func(V)
	// name describes a key in the error of a waiter whose own context
	// ended first.
	name func(K) string

	mu      sync.Mutex
	entries map[K]*memoEntry[K, V]
	// lru is the sentinel of a ring of the kept entries, most recently
	// used first; kept counts them.
	lru  memoEntry[K, V]
	kept int
}

// memoEntry is one single-flight slot. It joins the ring when its
// computation completes and is kept, so next is nil while it is in
// flight.
type memoEntry[K comparable, V any] struct {
	key        K
	done       chan struct{}
	v          V
	err        error
	cancelled  bool
	prev, next *memoEntry[K, V]
}

// do returns key's value, computing it when no entry holds it; shared
// reports that it came from another request's computation.
func (m *memo[K, V]) do(ctx context.Context, key K, compute func() (V, error)) (v V, shared bool, err error) {
	if m == nil {
		v, err = compute()
		return v, false, err
	}
	for {
		m.mu.Lock()
		if e, ok := m.entries[key]; ok {
			if e.next != nil {
				m.unlink(e)
				m.pushFront(e)
			}
			m.mu.Unlock()
			select {
			case <-e.done:
			case <-ctx.Done():
				return v, false, fmt.Errorf("%s: %w", m.name(key), ctx.Err())
			}
			if e.cancelled {
				// The computing request gave up (or hit a transient
				// fault). Loop to look again (another waiter may
				// already have republished), but only with a live
				// context: taking over just to cancel would drop
				// whatever that other waiter computes.
				if cerr := ctx.Err(); cerr != nil {
					return v, false, fmt.Errorf("%s: %w", m.name(key), cerr)
				}
				continue
			}
			return e.v, true, e.err
		}
		if m.entries == nil {
			m.entries = make(map[K]*memoEntry[K, V])
			m.lru.prev, m.lru.next = &m.lru, &m.lru
		}
		e := &memoEntry[K, V]{key: key, done: make(chan struct{})}
		m.entries[key] = e
		m.mu.Unlock()

		e.v, e.err = compute()
		m.mu.Lock()
		e.cancelled = e.err != nil && (ctx.Err() != nil || isTransient(e.err))
		if e.err != nil && (e.cancelled || !m.keepErr) {
			delete(m.entries, key)
		} else {
			m.pushFront(e)
			for m.kept > m.max {
				old := m.lru.prev
				m.unlink(old)
				delete(m.entries, old.key)
				if m.evicted != nil {
					m.evicted(old.v)
				}
			}
		}
		m.mu.Unlock()
		close(e.done)
		return e.v, false, e.err
	}
}

// ready reports, without blocking or computing, whether a request for
// key would be answered without a computation of its own: a kept value,
// or one in flight it would wait for. A kept error is not ready.
func (m *memo[K, V]) ready(key K) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[key]
	return ok && (e.next == nil || e.err == nil)
}

// each calls f with every kept value that is not an error, most
// recently used first, holding the memo's lock.
func (m *memo[K, V]) each(f func(V)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.entries == nil {
		return
	}
	for e := m.lru.next; e != &m.lru; e = e.next {
		if e.err == nil {
			f(e.v)
		}
	}
}

func (m *memo[K, V]) pushFront(e *memoEntry[K, V]) {
	e.prev, e.next = &m.lru, m.lru.next
	e.prev.next, e.next.prev = e, e
	m.kept++
}

func (m *memo[K, V]) unlink(e *memoEntry[K, V]) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
	m.kept--
}

// isTransient reports whether err carries the Transient() bool marker
// anywhere in its chain. The check is structural so this package needs
// no knowledge of who injected the error.
func isTransient(err error) bool {
	var tr interface{ Transient() bool }
	return errors.As(err, &tr) && tr.Transient()
}
