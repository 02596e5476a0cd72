package ctrlproto

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"weak"
)

// countingConn counts Write calls on a net.Conn: one per send syscall on a
// socket, which is what the batching contracts are about.
type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// countingListener wraps every accepted connection in a countingConn that
// shares one counter.
type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{nc, l.writes}, nil
}

// bytesConn is a net.Conn that reads from a fixed input and records what is
// written to it, and the size of each write; deadlines are no-ops.
type bytesConn struct {
	r     io.Reader
	w     bytes.Buffer
	sizes []int
}

func (c *bytesConn) Read(p []byte) (int, error) { return c.r.Read(p) }
func (c *bytesConn) Write(p []byte) (int, error) {
	c.sizes = append(c.sizes, len(p))
	return c.w.Write(p)
}
func (c *bytesConn) Close() error                     { return nil }
func (c *bytesConn) LocalAddr() net.Addr              { return nil }
func (c *bytesConn) RemoteAddr() net.Addr             { return nil }
func (c *bytesConn) SetDeadline(time.Time) error      { return nil }
func (c *bytesConn) SetReadDeadline(time.Time) error  { return nil }
func (c *bytesConn) SetWriteDeadline(time.Time) error { return nil }

// frames encodes msgs back to back, as one write would carry them.
func frames(t testing.TB, msgs ...Message) []byte {
	t.Helper()
	var b []byte
	for _, m := range msgs {
		var err error
		if b, err = appendFrame(b, m); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// TestStreamBurstWritesPerCap: a burst queued behind a stalled writer goes
// out in as few writes as the byte cap allows, in order, and onSent still
// fires once per message.
func TestStreamBurstWritesPerCap(t *testing.T) {
	const n = 10000
	cs, ss := net.Pipe()
	var writes atomic.Int64
	st := newStream(NewConn(countingConn{ss, &writes}), n)
	var sent atomic.Int64
	st.onSent = func(StreamKey, time.Duration) { sent.Add(1) }
	go st.writeLoop()
	rd := NewConn(cs)
	rd.ReadTimeout = 5 * time.Second
	t.Cleanup(func() {
		st.close()
		_ = ss.Close()
		_ = cs.Close()
	})
	stallWriter(t, st)
	for c := 0; c < n; c++ {
		if err := st.Enqueue(StreamKey{Kind: KeyPlacement, Cell: uint16(c)},
			&AssignCell{Seq: uint32(c), Cell: uint16(c), PRB: 25}); err != nil {
			t.Fatal(err)
		}
	}
	if m, err := rd.ReadMessage(); err != nil || m.Type() != TDrain {
		t.Fatalf("first message %v err %v, want the stall Drain", m, err)
	}
	for c := 0; c < n; c++ {
		m, err := rd.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		if ac, ok := m.(*AssignCell); !ok || ac.Cell != uint16(c) {
			t.Fatalf("message %d is %#v, want AssignCell for cell %d", c, m, c)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for st.Stats().Sent != n+1 {
		if time.Now().After(deadline) {
			t.Fatalf("sent %d, want %d", st.Stats().Sent, n+1)
		}
		time.Sleep(time.Millisecond)
	}
	frame := len(frames(t, &AssignCell{}))
	perWrite := maxBatch / frame
	want := 1 + (n+perWrite-1)/perWrite // the stall write, then ⌈n/perWrite⌉
	if got := writes.Load(); got != int64(want) {
		t.Fatalf("%d writes for the stall message and %d × %d-byte frames, want %d (cap %d bytes)",
			got, n, frame, want, maxBatch)
	}
	if got := sent.Load(); got != n+1 {
		t.Fatalf("onSent fired %d times, want once per message (%d)", got, n+1)
	}
}

// TestStreamOversizeFrameWritesAlone: a frame larger than the byte cap goes
// out in a write of its own, and the frames around it are not held back.
func TestStreamOversizeFrameWritesAlone(t *testing.T) {
	cs, ss := net.Pipe()
	var writes atomic.Int64
	st := newStream(NewConn(countingConn{ss, &writes}), 8)
	go st.writeLoop()
	rd := NewConn(cs)
	rd.ReadTimeout = 5 * time.Second
	t.Cleanup(func() {
		st.close()
		_ = ss.Close()
		_ = cs.Close()
	})
	stallWriter(t, st)
	sent := []Message{
		&AssignCell{Seq: 2, Cell: 1},
		&MigrateState{Seq: 3, Cell: 1, State: make([]byte, maxBatch)},
		&AssignCell{Seq: 4, Cell: 2},
	}
	for _, m := range sent {
		if err := st.Enqueue(StreamKey{}, m); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range append([]Message{&Drain{Seq: 1}}, sent...) {
		m, err := rd.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		if m.Type() != want.Type() {
			t.Fatalf("got %v, want %v", m.Type(), want.Type())
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for st.Stats().Sent != 4 {
		if time.Now().After(deadline) {
			t.Fatalf("sent %d, want 4", st.Stats().Sent)
		}
		time.Sleep(time.Millisecond)
	}
	// The stall, the assignment the snapshot does not fit behind, the
	// snapshot alone, then the last assignment.
	if got := writes.Load(); got != 4 {
		t.Fatalf("%d writes, want 4", got)
	}
}

// TestStreamReleasesDeliveredMessages: once a message is written, the stream
// holds no reference to it, so a delivered HARQ snapshot can be collected.
func TestStreamReleasesDeliveredMessages(t *testing.T) {
	st, rd := streamPair(t, 64)
	payload := enqueueSnapshot(t, st)
	m, err := rd.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if ms, ok := m.(*MigrateState); !ok || len(ms.State) != 1<<20 {
		t.Fatalf("got %#v, want the 1 MiB MigrateState", m)
	}
	deadline := time.Now().Add(2 * time.Second)
	for st.Stats().Sent != 1 {
		if time.Now().After(deadline) {
			t.Fatal("snapshot never counted as sent")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 3 && payload.Value() != nil; i++ {
		runtime.GC()
	}
	if payload.Value() != nil {
		t.Fatal("a delivered MigrateState payload is still reachable from the stream")
	}
}

// enqueueSnapshot queues a 1 MiB MigrateState and returns a weak pointer to
// its payload; the caller keeps no strong reference.
func enqueueSnapshot(t *testing.T, st *Stream) weak.Pointer[byte] {
	t.Helper()
	state := make([]byte, 1<<20)
	if err := st.Enqueue(StreamKey{Kind: KeyState, Cell: 3}, &MigrateState{Seq: 1, Cell: 3, State: state}); err != nil {
		t.Fatal(err)
	}
	return weak.Make(&state[0])
}

// agentPipe registers a Client over an in-memory pipe against a hand-driven
// controller side. It returns the client, the count of client writes since
// registration, and the controller's raw end.
func agentPipe(t *testing.T) (*Client, *atomic.Int64, net.Conn) {
	t.Helper()
	cs, ss := net.Pipe()
	var writes atomic.Int64
	ctl := NewConn(ss)
	ctl.ReadTimeout = 5 * time.Second
	errc := make(chan error, 1)
	go func() {
		if _, err := ctl.ReadMessage(); err != nil {
			errc <- err
			return
		}
		errc <- ctl.WriteMessage(&RegisterAck{HeartbeatMillis: 100})
	}()
	cl, err := RegisterAgentConn(countingConn{cs, &writes}, 5, 4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	writes.Store(0)
	// A client write nobody reads fails instead of hanging the test.
	_ = cs.SetWriteDeadline(time.Now().Add(5 * time.Second))
	t.Cleanup(func() {
		_ = cl.Close()
		_ = ss.Close()
	})
	return cl, &writes, ss
}

// controllerWrite writes b to the controller end without blocking the test
// (a pipe write waits for the client to read).
func controllerWrite(nc net.Conn, b []byte) {
	go func() { _, _ = nc.Write(b) }()
}

// TestAcksCoalescePerBurst: a client that receives K commands in one read
// sends its K acks in at most two writes, in order.
func TestAcksCoalescePerBurst(t *testing.T) {
	const k = 32
	cl, writes, ss := agentPipe(t)
	var cmds []Message
	for i := 1; i <= k; i++ {
		cmds = append(cmds, &AssignCell{Seq: uint32(i), Cell: uint16(i)})
	}
	controllerWrite(ss, frames(t, cmds...))
	go func() {
		for i := 0; i < k; i++ {
			m, err := cl.Receive()
			if err != nil {
				return
			}
			_ = cl.Ack(m.(*AssignCell).Seq)
		}
	}()
	ctl := NewConn(ss)
	ctl.ReadTimeout = 5 * time.Second
	for i := 1; i <= k; i++ {
		m, err := ctl.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		if a, ok := m.(*Ack); !ok || a.Seq != uint32(i) {
			t.Fatalf("got %#v, want Ack %d", m, i)
		}
	}
	if got := writes.Load(); got > 2 {
		t.Fatalf("%d acks took %d writes, want ≤ 2", k, got)
	}
}

// TestLoneAckFlushedBeforeReceiveBlocks: an ack deferred because the reader
// held a partial frame reaches the controller while the client sits blocked
// in Receive waiting for the rest of that frame.
func TestLoneAckFlushedBeforeReceiveBlocks(t *testing.T) {
	cl, _, ss := agentPipe(t)
	next := frames(t, &RemoveCell{Seq: 2, Cell: 9})
	controllerWrite(ss, append(frames(t, &AssignCell{Seq: 1, Cell: 9}), next[:3]...))
	got := make(chan Message, 2)
	go func() {
		for i := 0; i < 2; i++ {
			m, err := cl.Receive()
			if err != nil {
				return
			}
			got <- m
			if a, ok := m.(*AssignCell); ok {
				_ = cl.Ack(a.Seq)
			}
		}
	}()
	ctl := NewConn(ss)
	ctl.ReadTimeout = 5 * time.Second
	m, err := ctl.ReadMessage()
	if err != nil {
		t.Fatalf("ack never arrived while the client waited for input: %v", err)
	}
	if a, ok := m.(*Ack); !ok || a.Seq != 1 {
		t.Fatalf("got %#v, want Ack 1", m)
	}
	if m := <-got; m.Type() != TAssignCell {
		t.Fatalf("first command %v", m.Type())
	}
	select {
	case m := <-got:
		t.Fatalf("Receive returned %v before the frame was complete", m.Type())
	default:
	}
	controllerWrite(ss, next[3:])
	select {
	case m := <-got:
		if m.Type() != TRemoveCell {
			t.Fatalf("second command %v, want remove-cell", m.Type())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second command never completed")
	}
}

// TestDeferredAcksPrecedeLaterWrites: acks still pending when the agent
// sends a heartbeat or an error go out first, in the same write.
func TestDeferredAcksPrecedeLaterWrites(t *testing.T) {
	for _, tc := range []struct {
		name string
		send func(*Client) error
		want MsgType
	}{
		{"heartbeat", func(c *Client) error { return c.Heartbeat(&Heartbeat{TTI: 7}) }, THeartbeat},
		{"error", func(c *Client) error { return c.SendError(4, 1, "no") }, TError},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl, writes, ss := agentPipe(t)
			partial := frames(t, &Drain{Seq: 9})[:2]
			controllerWrite(ss, append(frames(t,
				&AssignCell{Seq: 1}, &AssignCell{Seq: 2}, &AssignCell{Seq: 3}), partial...))
			for i := 0; i < 3; i++ {
				m, err := cl.Receive()
				if err != nil {
					t.Fatal(err)
				}
				if err := cl.Ack(m.(*AssignCell).Seq); err != nil {
					t.Fatal(err)
				}
			}
			if got := writes.Load(); got != 0 {
				t.Fatalf("%d writes while more input was buffered, want the acks deferred", got)
			}
			errc := make(chan error, 1)
			go func() { errc <- tc.send(cl) }()
			ctl := NewConn(ss)
			ctl.ReadTimeout = 5 * time.Second
			for i := 1; i <= 4; i++ {
				m, err := ctl.ReadMessage()
				if err != nil {
					t.Fatal(err)
				}
				if i <= 3 {
					if a, ok := m.(*Ack); !ok || a.Seq != uint32(i) {
						t.Fatalf("message %d is %#v, want Ack %d", i, m, i)
					}
				} else if m.Type() != tc.want {
					t.Fatalf("last message %v, want %v", m.Type(), tc.want)
				}
			}
			if err := <-errc; err != nil {
				t.Fatal(err)
			}
			if got := writes.Load(); got != 1 {
				t.Fatalf("acks and %s took %d writes, want 1", tc.name, got)
			}
		})
	}
}

// TestReadMessageAllocationBounded: a header that claims a near-MaxFrame
// payload and then ends costs about what arrived, not what it claimed.
func TestReadMessageAllocationBounded(t *testing.T) {
	data := []byte{0x00, 0xFF, 0xFF, 0xFF, byte(TMigrateState)}
	data = append(data, make([]byte, 100<<10)...)
	c := NewConn(&bytesConn{r: bytes.NewReader(data)})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := c.ReadMessage()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated frame decoded")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("reading a 100 KiB prefix of a 16 MiB claim allocated %d bytes", got)
	}
}

// ackCounter is a Handler that signals each time another burst of acks has
// arrived.
type ackCounter struct {
	burst int64
	acks  atomic.Int64
	done  chan struct{}
}

func (h *ackCounter) OnRegister(*Agent, *Register) error { return nil }
func (h *ackCounter) OnHeartbeat(*Agent, *Heartbeat)     {}
func (h *ackCounter) OnDisconnect(*Agent, error)         {}
func (h *ackCounter) OnMessage(_ *Agent, m Message) {
	if _, ok := m.(*Ack); ok && h.acks.Add(1)%h.burst == 0 {
		h.done <- struct{}{}
	}
}

// BenchmarkStreamBurst pushes bursts of 3000 AssignCells through a real
// server stream to an acking client over loopback TCP and reports the cost
// per command and the send syscalls (both directions) per command.
func BenchmarkStreamBurst(b *testing.B) {
	const burst = 3000
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	var writes atomic.Int64
	h := &ackCounter{burst: burst, done: make(chan struct{}, 1)}
	srv := NewServer(countingListener{ln, &writes}, h)
	srv.SendQueue = burst
	go func() { _ = srv.Serve() }()
	defer srv.Close()
	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	cl, err := RegisterAgentConn(countingConn{nc, &writes}, 1, 8, 1000)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	go func() {
		for {
			m, err := cl.Receive()
			if err != nil {
				return
			}
			if ac, ok := m.(*AssignCell); ok {
				_ = cl.Ack(ac.Seq)
			}
		}
	}()
	agent, ok := srv.Agent(1)
	for deadline := time.Now().Add(5 * time.Second); !ok; agent, ok = srv.Agent(1) {
		if time.Now().After(deadline) {
			b.Fatal("agent never registered")
		}
		time.Sleep(time.Millisecond)
	}
	writes.Store(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := 0; c < burst; c++ {
			if _, err := agent.AssignCell(uint16(c), 1, 25, 2); err != nil {
				b.Fatal(err)
			}
		}
		select {
		case <-h.done:
		case <-time.After(10 * time.Second):
			b.Fatalf("burst %d: %d acks", i, h.acks.Load())
		}
	}
	b.StopTimer()
	msgs := float64(b.N * burst)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/msgs, "ns/msg")
	b.ReportMetric(float64(writes.Load())/msgs, "writes/msg")
}
