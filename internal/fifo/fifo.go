// Package fifo provides Window, a bounded first-in first-out buffer whose
// live entries are always one contiguous slice, oldest first.
package fifo

// Window keeps the most recent entries pushed, up to a limit given at
// each push. It is an amortised slide: entries append into a backing
// array of twice the limit, and only when that array fills are the live
// entries copied back to its front — one copy of limit entries per limit
// pushes, where shifting a capped slice on every push copies limit
// entries each time. Items views the live entries in place, so readers
// (model training, snapshots, loss scans) see them oldest first without
// a copy.
//
// The zero Window is empty and ready to use.
type Window[T any] struct {
	buf   []T
	start int
}

// Push appends v, first evicting the oldest entry if the window already
// holds limit entries.
func (w *Window[T]) Push(v T, limit int) {
	if w.Len() >= limit {
		var zero T
		w.buf[w.start] = zero
		w.start++
	}
	if len(w.buf) == cap(w.buf) && w.start > 0 {
		w.compact(limit)
	}
	w.buf = append(w.buf, v)
}

// compact moves the live entries to the front of a backing array with
// room for at least limit more.
func (w *Window[T]) compact(limit int) {
	live := w.buf[w.start:]
	if cap(w.buf) < 2*limit {
		w.buf = append(make([]T, 0, 2*limit), live...)
	} else {
		n := copy(w.buf, live)
		clear(w.buf[n:])
		w.buf = w.buf[:n]
	}
	w.start = 0
}

// Items returns the live entries, oldest first. The slice aliases the
// window and is valid until the next Push.
func (w *Window[T]) Items() []T { return w.buf[w.start:] }

// Len returns the number of live entries.
func (w *Window[T]) Len() int { return len(w.buf) - w.start }

// Reset empties the window, releasing its storage.
func (w *Window[T]) Reset() { *w = Window[T]{} }
