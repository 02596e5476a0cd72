package ctrlproto

import (
	"errors"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"
)

// sampleMessages returns one or more populated values of every message type.
func sampleMessages() []Message {
	return []Message{
		&Register{ProtoVersion: 1, ServerID: 7, Cores: 16, SpeedMilli: 1250},
		&RegisterAck{HeartbeatMillis: 100},
		&Heartbeat{ServerID: 7, TTI: 123456, UsedMilliCores: 3500, QueueLen: 12, Misses: 3, Completed: 99999},
		&AssignCell{Seq: 1, Cell: 42, PCI: 101, PRB: 100, Antennas: 4},
		&RemoveCell{Seq: 2, Cell: 42},
		&MigrateState{Seq: 3, Cell: 42, State: []byte{1, 2, 3, 4, 5}},
		&MigrateState{Seq: 4, Cell: 1, State: nil},
		&Drain{Seq: 5},
		&Promote{Seq: 6},
		&Ack{Seq: 7},
		&ErrorMsg{Seq: 8, Code: 2, Text: "boom"},
		&CellLoad{ServerID: 7, Cell: 3, MilliCores: 1500, TTI: 99},
		&StatsRequest{Seq: 9},
		&StatsReport{Seq: 9, ServerID: 7, Data: []byte(`{"counters":[]}`)},
		&StatsReport{Seq: 10, ServerID: 8, Data: nil},
		&CellOwned{ServerID: 7, Cells: []uint16{4, 9, 1}},
		&CellOwned{ServerID: 8, Cells: nil},
	}
}

func TestMessageRoundtrips(t *testing.T) {
	for _, m := range sampleMessages() {
		payload := m.MarshalBinary(nil)
		fresh, err := newMessage(m.Type())
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.UnmarshalBinary(payload); err != nil {
			t.Fatalf("%v: %v", m.Type(), err)
		}
		// Normalize nil vs empty payloads for comparison.
		if ms, ok := fresh.(*MigrateState); ok && len(ms.State) == 0 {
			ms.State = nil
		}
		if co, ok := fresh.(*CellOwned); ok && len(co.Cells) == 0 {
			co.Cells = nil
		}
		if sr, ok := fresh.(*StatsReport); ok && len(sr.Data) == 0 {
			sr.Data = nil
		}
		if !reflect.DeepEqual(m, fresh) {
			t.Fatalf("%v roundtrip: %+v != %+v", m.Type(), fresh, m)
		}
	}
}

func TestMessageRejectsTruncation(t *testing.T) {
	msgs := []Message{
		&Register{}, &RegisterAck{}, &Heartbeat{}, &AssignCell{},
		&RemoveCell{}, &MigrateState{}, &Drain{}, &Promote{}, &Ack{}, &ErrorMsg{},
		&CellLoad{}, &StatsRequest{}, &StatsReport{}, &CellOwned{},
	}
	for _, m := range msgs {
		full := m.MarshalBinary(nil)
		if len(full) == 0 {
			continue
		}
		fresh, _ := newMessage(m.Type())
		if err := fresh.UnmarshalBinary(full[:len(full)-1]); err == nil {
			t.Fatalf("%v accepted truncated payload", m.Type())
		}
	}
	if _, err := newMessage(99); !errors.Is(err, ErrBadMessage) {
		t.Fatal("unknown type accepted")
	}
}

func TestMigrateStateLengthMismatch(t *testing.T) {
	m := &MigrateState{Seq: 1, Cell: 2, State: []byte{1, 2, 3}}
	payload := m.MarshalBinary(nil)
	payload = append(payload, 0xFF) // extra byte breaks the declared length
	var fresh MigrateState
	if err := fresh.UnmarshalBinary(payload); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("length mismatch accepted: %v", err)
	}
}

func TestConnFraming(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	defer ca.Close()
	defer cb.Close()
	go func() {
		_ = ca.WriteMessage(&Heartbeat{ServerID: 3, TTI: 17, UsedMilliCores: 800})
		_ = ca.WriteMessage(&Ack{Seq: 9})
	}()
	m1, err := cb.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	hb, ok := m1.(*Heartbeat)
	if !ok || hb.ServerID != 3 || hb.TTI != 17 {
		t.Fatalf("got %+v", m1)
	}
	m2, err := cb.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if ack, ok := m2.(*Ack); !ok || ack.Seq != 9 {
		t.Fatalf("got %+v", m2)
	}
}

func TestMsgTypeStrings(t *testing.T) {
	for ty := TRegister; ty <= TCellOwned; ty++ {
		if ty.String() == "" {
			t.Fatalf("type %d has no name", ty)
		}
	}
	if MsgType(77).String() == "" {
		t.Fatal("unknown type must print")
	}
}

// recordingHandler captures controller-side events for assertions.
type recordingHandler struct {
	mu          sync.Mutex
	registered  []uint32
	heartbeats  []Heartbeat
	messages    []Message
	disconnects int
	rejectID    uint32
}

func (h *recordingHandler) OnRegister(a *Agent, r *Register) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if r.ServerID == h.rejectID && h.rejectID != 0 {
		return errors.New("rejected by policy")
	}
	h.registered = append(h.registered, r.ServerID)
	return nil
}

func (h *recordingHandler) OnHeartbeat(a *Agent, hb *Heartbeat) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.heartbeats = append(h.heartbeats, *hb)
}

func (h *recordingHandler) OnMessage(a *Agent, m Message) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.messages = append(h.messages, m)
}

func (h *recordingHandler) OnDisconnect(a *Agent, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.disconnects++
}

func startServer(t *testing.T, h Handler) *Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(ln, h)
	go func() { _ = s.Serve() }()
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func TestRegisterHeartbeatCommandFlow(t *testing.T) {
	h := &recordingHandler{}
	s := startServer(t, h)

	cl, err := DialAgent(s.Addr().String(), 11, 8, 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.Interval != s.HeartbeatInterval {
		t.Fatalf("interval %v", cl.Interval)
	}
	if cl.ServerID() != 11 {
		t.Fatal("server id")
	}
	if err := cl.Heartbeat(&Heartbeat{TTI: 5, UsedMilliCores: 100}); err != nil {
		t.Fatal(err)
	}

	// Wait for the server to see the heartbeat, then command the agent.
	deadline := time.Now().Add(2 * time.Second)
	for {
		h.mu.Lock()
		n := len(h.heartbeats)
		h.mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("heartbeat never arrived")
		}
		time.Sleep(time.Millisecond)
	}

	agent, ok := s.Agent(11)
	if !ok {
		t.Fatal("agent not tracked")
	}
	if agent.Cores != 8 || agent.SpeedMilli != 1000 {
		t.Fatalf("agent caps %+v", agent)
	}
	seq, err := agent.AssignCell(3, 99, 50, 2)
	if err != nil {
		t.Fatal(err)
	}

	// Agent receives and acks.
	m, err := cl.Receive()
	if err != nil {
		t.Fatal(err)
	}
	ac, ok := m.(*AssignCell)
	if !ok || ac.Cell != 3 || ac.PCI != 99 || ac.PRB != 50 || ac.Antennas != 2 || ac.Seq != seq {
		t.Fatalf("got %+v", m)
	}
	if err := cl.Ack(ac.Seq); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(2 * time.Second)
	for {
		h.mu.Lock()
		n := len(h.messages)
		h.mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("ack never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	h.mu.Lock()
	ack, ok := h.messages[0].(*Ack)
	h.mu.Unlock()
	if !ok || ack.Seq != seq {
		t.Fatalf("controller saw %+v", h.messages[0])
	}
}

func TestRegisterRejection(t *testing.T) {
	h := &recordingHandler{rejectID: 66}
	s := startServer(t, h)
	if _, err := DialAgent(s.Addr().String(), 66, 4, 1000); err == nil {
		t.Fatal("rejected registration succeeded")
	}
	if s.NumAgents() != 0 {
		t.Fatal("rejected agent tracked")
	}
}

func TestVersionMismatchRejected(t *testing.T) {
	h := &recordingHandler{}
	s := startServer(t, h)
	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn := NewConn(nc)
	defer conn.Close()
	_ = conn.WriteMessage(&Register{ProtoVersion: 99, ServerID: 1, Cores: 1, SpeedMilli: 1000})
	conn.ReadTimeout = 2 * time.Second
	m, err := conn.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := m.(*ErrorMsg); !ok || e.Code != 2 {
		t.Fatalf("got %+v", m)
	}
}

func TestDisconnectNotifies(t *testing.T) {
	h := &recordingHandler{}
	s := startServer(t, h)
	cl, err := DialAgent(s.Addr().String(), 5, 2, 1000)
	if err != nil {
		t.Fatal(err)
	}
	_ = cl.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		h.mu.Lock()
		d := h.disconnects
		h.mu.Unlock()
		if d == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("disconnect never reported")
		}
		time.Sleep(time.Millisecond)
	}
	if s.NumAgents() != 0 {
		t.Fatal("disconnected agent still tracked")
	}
}

func TestMigrateStateOverWire(t *testing.T) {
	h := &recordingHandler{}
	s := startServer(t, h)
	cl, err := DialAgent(s.Addr().String(), 2, 2, 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	state := make([]byte, 100000)
	for i := range state {
		state[i] = byte(i)
	}
	if err := cl.SendMigrateState(9, state); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		h.mu.Lock()
		n := len(h.messages)
		h.mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("state never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	h.mu.Lock()
	ms, ok := h.messages[0].(*MigrateState)
	h.mu.Unlock()
	if !ok || ms.Cell != 9 || len(ms.State) != len(state) {
		t.Fatalf("got %+v", h.messages[0])
	}
	for i := range state {
		if ms.State[i] != state[i] {
			t.Fatalf("state corrupted at %d", i)
		}
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	defer ca.Close()
	defer cb.Close()
	go func() {
		// Hand-craft an oversize header.
		hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF, byte(TAck)}
		_, _ = a.Write(hdr)
	}()
	_ = ca // writer side uses raw conn above
	if _, err := cb.ReadMessage(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize frame: %v", err)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	h := &recordingHandler{}
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	s := NewServer(ln, h)
	go func() { _ = s.Serve() }()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("double close errored")
	}
	if _, err := DialAgent(s.Addr().String(), 1, 1, 1000); err == nil {
		t.Fatal("dial after close succeeded")
	}
}

func TestReadTimeout(t *testing.T) {
	a, b := net.Pipe()
	ca := NewConn(a)
	defer ca.Close()
	defer b.Close()
	ca.ReadTimeout = 20 * time.Millisecond
	_, err := ca.ReadMessage()
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		if !errors.Is(err, io.EOF) {
			t.Fatalf("expected timeout, got %v", err)
		}
	}
}

// TestZeroReadTimeoutClearsDeadline is the regression test for the stale
// socket deadline: a timed read arms an absolute deadline, and resetting
// ReadTimeout to zero must clear it — otherwise the first blocking read
// past the old deadline fails spuriously (this killed every agent 5 s
// after registration, the registration handshake's timed read).
func TestZeroReadTimeoutClearsDeadline(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	defer ca.Close()
	defer cb.Close()
	ca.ReadTimeout = 40 * time.Millisecond
	go func() { _ = cb.WriteMessage(&Ack{Seq: 1}) }()
	if _, err := ca.ReadMessage(); err != nil {
		t.Fatalf("timed read: %v", err)
	}
	ca.ReadTimeout = 0
	go func() {
		// Deliver only after the stale 40 ms deadline has elapsed.
		time.Sleep(120 * time.Millisecond)
		_ = cb.WriteMessage(&Ack{Seq: 2})
	}()
	m, err := ca.ReadMessage()
	if err != nil {
		t.Fatalf("untimed read after stale deadline: %v", err)
	}
	if ack, ok := m.(*Ack); !ok || ack.Seq != 2 {
		t.Fatalf("got %v", m)
	}
}
