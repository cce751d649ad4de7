package metrics

import "sync"

// Ring is a fixed-capacity record buffer that overwrites its oldest
// record when full. Every record put gets the next sequence number
// (monotonic from 0); Dropped counts the records wraparound evicted.
// It backs both the flight recorder (Recorder) and the spans package's
// completed-span ring. All methods are safe for concurrent use.
type Ring[T any] struct {
	mu    sync.Mutex
	buf   []T
	next  uint64 // records ever put: the seq the next one gets
	first uint64 // seq of the oldest retained record
}

// NewRing returns an empty ring holding at most capacity records
// (clamped to at least 1).
func NewRing[T any](capacity int) *Ring[T] {
	return &Ring[T]{buf: make([]T, max(capacity, 1))}
}

// slot claims the slot for the next record, evicting the oldest when
// the ring is full, and returns it. Caller holds mu.
func (r *Ring[T]) slot() *T {
	if r.next-r.first == uint64(len(r.buf)) {
		r.first++
	}
	s := &r.buf[r.next%uint64(len(r.buf))]
	r.next++
	return s
}

// Put appends v.
func (r *Ring[T]) Put(v T) {
	r.mu.Lock()
	*r.slot() = v
	r.mu.Unlock()
}

// Seq returns the number of records put so far — the seq the next one
// will get. Capture it before a run and pass it to Since to scope a
// query to that run.
func (r *Ring[T]) Seq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// Len returns how many records the ring retains.
func (r *Ring[T]) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return int(r.next - r.first)
}

// Capacity returns the ring size.
func (r *Ring[T]) Capacity() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Dropped returns how many records wraparound has evicted.
func (r *Ring[T]) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.first
}

// SetCapacity resizes the ring (clamped to at least 1), keeping the
// newest records that fit.
func (r *Ring[T]) SetCapacity(n int) {
	n = max(n, 1)
	r.mu.Lock()
	defer r.mu.Unlock()
	kept := r.from(r.first)
	if len(kept) > n {
		kept = kept[len(kept)-n:]
	}
	r.buf = make([]T, n)
	r.first = r.next - uint64(len(kept))
	for i, v := range kept {
		r.buf[(r.first+uint64(i))%uint64(n)] = v
	}
}

// from copies the retained records with seq >= seq, oldest first.
// Caller holds mu and passes seq >= first.
func (r *Ring[T]) from(seq uint64) []T {
	out := make([]T, 0, r.next-min(seq, r.next))
	for i := seq; i < r.next; i++ {
		out = append(out, r.buf[i%uint64(len(r.buf))])
	}
	return out
}

// Snapshot returns every retained record, oldest first.
func (r *Ring[T]) Snapshot() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.from(r.first)
}

// Since returns the retained records with seq >= seq, oldest first.
// Records already evicted are silently absent — size the ring
// (SetCapacity) for the run.
func (r *Ring[T]) Since(seq uint64) []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.from(max(seq, r.first))
}

// Select returns the retained records match accepts, oldest first;
// with last > 0 only the newest last of them.
func (r *Ring[T]) Select(match func(*T) bool, last int) []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]T, 0, r.next-r.first)
	for i := r.first; i < r.next; i++ {
		if v := &r.buf[i%uint64(len(r.buf))]; match(v) {
			out = append(out, *v)
		}
	}
	if last > 0 && len(out) > last {
		out = out[len(out)-last:]
	}
	return out
}
