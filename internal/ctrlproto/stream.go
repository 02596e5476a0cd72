package ctrlproto

import (
	"errors"
	"sync"
	"time"
)

// Stream errors.
var (
	// ErrStreamClosed indicates an enqueue on a closed agent stream.
	ErrStreamClosed = errors.New("ctrlproto: stream closed")
	// ErrStreamOverflow indicates a full send queue with nothing evictable.
	ErrStreamOverflow = errors.New("ctrlproto: send queue full")
)

// StreamKeyKind classifies a queued message for coalescing.
type StreamKeyKind uint8

// Coalescing key kinds. Messages sharing a (kind, cell) key declare the same
// piece of desired state, so only the newest needs to reach the agent.
const (
	// KeyNone marks uncoalescable messages: strict FIFO, never dropped.
	KeyNone StreamKeyKind = iota
	// KeyPlacement covers AssignCell/RemoveCell for one cell — both are
	// idempotent declarations of where the cell should run, so the newest
	// wins.
	KeyPlacement
	// KeyState covers MigrateState for one cell; a newer HARQ snapshot
	// supersedes an older one still queued.
	KeyState
	// KeyStats covers StatsRequest; a fresh scrape supersedes a stale one.
	KeyStats
)

// StreamKey is the coalescing slot a queued message occupies. The zero key
// (KeyNone) is unkeyed.
type StreamKey struct {
	Kind StreamKeyKind
	Cell uint16
}

// StreamStats is a point-in-time snapshot of one stream's accounting.
type StreamStats struct {
	// Sent counts messages written to the socket.
	Sent uint64
	// Coalesced counts enqueues folded into an already-queued message with
	// the same key (the older payload was replaced, not duplicated).
	Coalesced uint64
	// Dropped counts queued keyed messages evicted to admit newer traffic
	// when the queue was full.
	Dropped uint64
	// Depth is the current number of live queued messages.
	Depth int
}

// outEntry is one queued message. Dead entries were evicted or coalesced
// away and are skipped by the writer.
type outEntry struct {
	key  StreamKey
	msg  Message
	enq  time.Time
	dead bool
}

// Stream is the controller→agent send side: a bounded, coalescing outbox
// drained by one dedicated writer goroutine, so a slow or stalled agent can
// never block the control loop. Enqueue is non-blocking by construction:
// when the queue is full it first coalesces by key, then evicts the oldest
// keyed (stale) message; unkeyed messages are never dropped.
//
// Concurrency: Enqueue may be called from any goroutine; the writer
// goroutine is the only socket writer for queued traffic (the Conn's
// internal write lock still permits out-of-band direct writes, e.g. the
// registration ack, to interleave frame-atomically). Close is idempotent
// and unblocks both enqueuers and the writer.
type Stream struct {
	conn  *Conn
	limit int

	// onSent observes every successful write with the message's key and the
	// time it spent queued (the dissemination-latency signal). onDrop
	// observes evictions so the caller can repair its bookkeeping (e.g.
	// re-mark a placement entry unapplied). Both may be nil; both are
	// invoked without the stream lock held.
	onSent func(key StreamKey, queueWait time.Duration)
	onDrop func(key StreamKey, m Message)

	mu     sync.Mutex
	cond   *sync.Cond
	q      []*outEntry
	head   int
	live   int
	byKey  map[StreamKey]*outEntry
	closed bool
	stats  StreamStats

	done chan struct{}
}

// defaultSendQueue bounds a stream's live queue when the server does not
// configure one.
const defaultSendQueue = 256

// newStream builds a stream over conn; start launches the writer.
func newStream(conn *Conn, limit int) *Stream {
	if limit <= 0 {
		limit = defaultSendQueue
	}
	st := &Stream{
		conn:  conn,
		limit: limit,
		byKey: make(map[StreamKey]*outEntry),
		done:  make(chan struct{}),
	}
	st.cond = sync.NewCond(&st.mu)
	return st
}

// Enqueue queues a message for the writer. Keyed messages replace any queued
// message with the same key (keeping its queue position, so coalescing never
// delays delivery); when the queue is full, the oldest queued keyed message
// is evicted to make room. It never blocks on the socket.
func (st *Stream) Enqueue(key StreamKey, m Message) error {
	now := time.Now()
	var evictedKey StreamKey
	var evictedMsg Message

	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return ErrStreamClosed
	}
	if key.Kind != KeyNone {
		if e, ok := st.byKey[key]; ok && !e.dead {
			e.msg = m
			e.enq = now
			st.stats.Coalesced++
			st.mu.Unlock()
			return nil
		}
	}
	if st.live >= st.limit && key.Kind != KeyNone {
		// Evict the oldest keyed entry: it is by definition the stalest
		// piece of coalescable state, and the caller's onDrop hook gets a
		// chance to schedule a re-send once the agent catches up.
		evicted := false
		for i := st.head; i < len(st.q); i++ {
			e := st.q[i]
			if !e.dead && e.key.Kind != KeyNone {
				e.dead = true
				delete(st.byKey, e.key)
				st.live--
				st.stats.Dropped++
				evictedKey, evictedMsg, evicted = e.key, e.msg, true
				break
			}
		}
		if !evicted {
			st.mu.Unlock()
			return ErrStreamOverflow
		}
	}
	e := &outEntry{key: key, msg: m, enq: now}
	st.q = append(st.q, e)
	st.live++
	if key.Kind != KeyNone {
		st.byKey[key] = e
	}
	st.stats.Depth = st.live
	st.cond.Signal()
	st.mu.Unlock()
	if evictedMsg != nil && st.onDrop != nil {
		st.onDrop(evictedKey, evictedMsg)
	}
	return nil
}

// writeLoop drains the queue onto the socket until the stream closes or a
// write fails. It is the stream's single consumer. Each time it wakes it
// frames every live queued entry, up to maxBatch bytes, back to back into
// one buffer and sends them with one write; the entries of a batch are in
// flight from the moment they are taken, and onSent fires for each once the
// write returns.
func (st *Stream) writeLoop() {
	defer close(st.done)
	var (
		buf   []byte
		batch []sentEntry
	)
	for {
		st.mu.Lock()
		for st.head >= len(st.q) && !st.closed {
			st.cond.Wait()
		}
		if st.head >= len(st.q) && st.closed {
			st.mu.Unlock()
			return
		}
		var frameErr error
		buf, batch = buf[:0], batch[:0]
		for st.head < len(st.q) {
			e := st.q[st.head]
			if !e.dead {
				n := len(buf)
				if buf, frameErr = appendFrame(buf, e.msg); frameErr != nil {
					break
				}
				if len(buf) > maxBatch && n > 0 {
					buf = buf[:n] // the next drain starts with this entry
					break
				}
				if e.key.Kind != KeyNone && st.byKey[e.key] == e {
					delete(st.byKey, e.key)
				}
				st.live--
				batch = append(batch, sentEntry{e.key, e.enq})
			}
			st.q[st.head] = nil // a delivered message must not stay reachable
			st.head++
		}
		if st.head == len(st.q) {
			st.q, st.head = st.q[:0], 0
		} else if st.head > len(st.q)/2 && st.head > 64 {
			n := copy(st.q, st.q[st.head:])
			clear(st.q[n:])
			st.q, st.head = st.q[:n], 0
		}
		st.stats.Depth = st.live
		st.mu.Unlock()

		var err error
		if len(buf) > 0 {
			err = st.conn.writeFrames(buf)
		}
		if err == nil {
			st.mu.Lock()
			st.stats.Sent += uint64(len(batch))
			st.mu.Unlock()
			if st.onSent != nil {
				now := time.Now()
				for _, s := range batch {
					st.onSent(s.key, now.Sub(s.enq))
				}
			}
		}
		if err != nil || frameErr != nil {
			// The socket failed, or an entry exceeds MaxFrame: the stream
			// dies and reconnection reconciles what it held.
			st.close()
			return
		}
		if cap(buf) > 2*maxBatch {
			buf = nil // do not pin one oversized state snapshot's copy
		}
	}
}

// sentEntry is what the writer keeps of an entry in flight: enough for the
// onSent hook, and no reference to the message.
type sentEntry struct {
	key StreamKey
	enq time.Time
}

// close marks the stream closed and wakes the writer; queued messages are
// discarded (the connection is dead or dying, and reconnection reconciles
// state). It does not close the Conn — the owner does.
func (st *Stream) close() {
	st.mu.Lock()
	st.closed = true
	st.cond.Broadcast()
	st.mu.Unlock()
}

// Stats returns a snapshot of the stream's accounting.
func (st *Stream) Stats() StreamStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.stats
}
