package ctrlproto

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Handler receives controller-side protocol events. Callbacks run on the
// per-agent reader goroutine; implementations must be safe for concurrent
// calls from different agents.
type Handler interface {
	// OnRegister runs when an agent registers; returning an error rejects
	// and closes the connection.
	OnRegister(a *Agent, reg *Register) error
	// OnHeartbeat runs for each load report.
	OnHeartbeat(a *Agent, hb *Heartbeat)
	// OnMessage runs for every other agent→controller message (acks,
	// errors, migration state).
	OnMessage(a *Agent, m Message)
	// OnDisconnect runs when the agent's connection ends; err is the read
	// error (io.EOF for clean shutdown).
	OnDisconnect(a *Agent, err error)
}

// Agent is the controller's handle on one connected data-plane server.
// Command senders may be called from any goroutine: each enqueues onto the
// agent's event stream (see Stream) and returns without touching the socket,
// so a slow agent can never stall a caller. Enqueue errors mean the message
// was not (and will not be) delivered — the stream is closed or the queue
// was full of uncoalescable traffic — and the caller must re-drive the state
// on a later round.
type Agent struct {
	// ID is the agent's registered server ID.
	ID uint32
	// Cores and SpeedMilli echo the registration.
	Cores      uint16
	SpeedMilli uint32

	conn   *Conn
	stream *Stream // non-nil once serveConn starts the writer
	seq    uint32
	mu     sync.Mutex
}

// nextSeq returns a fresh command sequence number.
func (a *Agent) nextSeq() uint32 {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.seq++
	return a.seq
}

// Send transmits a raw message to the agent directly, bypassing the stream.
// It blocks on the socket; command senders below are the streaming path.
func (a *Agent) Send(m Message) error { return a.conn.WriteMessage(m) }

// send enqueues onto the agent's stream, falling back to a direct write for
// agents constructed without one (tests driving the protocol by hand).
func (a *Agent) send(key StreamKey, m Message) error {
	if a.stream != nil {
		return a.stream.Enqueue(key, m)
	}
	return a.conn.WriteMessage(m)
}

// StreamStats returns the agent stream's accounting (zero value when the
// agent has no stream).
func (a *Agent) StreamStats() StreamStats {
	if a.stream == nil {
		return StreamStats{}
	}
	return a.stream.Stats()
}

// AssignCell queues a cell assignment and returns its sequence number. It
// coalesces with any queued assignment or removal of the same cell: both
// declare the cell's desired placement, and the newest declaration wins.
func (a *Agent) AssignCell(cell, pci, prb uint16, antennas uint8) (uint32, error) {
	seq := a.nextSeq()
	return seq, a.send(StreamKey{Kind: KeyPlacement, Cell: cell},
		&AssignCell{Seq: seq, Cell: cell, PCI: pci, PRB: prb, Antennas: antennas})
}

// RemoveCell queues a cell removal (coalesces with queued placement commands
// for the same cell).
func (a *Agent) RemoveCell(cell uint16) (uint32, error) {
	seq := a.nextSeq()
	return seq, a.send(StreamKey{Kind: KeyPlacement, Cell: cell}, &RemoveCell{Seq: seq, Cell: cell})
}

// MigrateState queues a cell's serialized state for the agent; a newer
// snapshot for the same cell supersedes a queued older one.
func (a *Agent) MigrateState(cell uint16, state []byte) (uint32, error) {
	seq := a.nextSeq()
	return seq, a.send(StreamKey{Kind: KeyState, Cell: cell}, &MigrateState{Seq: seq, Cell: cell, State: state})
}

// Drain tells the agent to stop accepting new cells. Lifecycle commands are
// unkeyed: they queue FIFO and are never coalesced or dropped.
func (a *Agent) Drain() (uint32, error) {
	seq := a.nextSeq()
	return seq, a.send(StreamKey{}, &Drain{Seq: seq})
}

// Promote activates a standby agent (unkeyed, like Drain).
func (a *Agent) Promote() (uint32, error) {
	seq := a.nextSeq()
	return seq, a.send(StreamKey{}, &Promote{Seq: seq})
}

// RequestStats asks the agent for a telemetry snapshot; the StatsReport
// arrives on the handler's OnMessage with the returned sequence number. A
// queued unanswered request is superseded by a fresh one.
func (a *Agent) RequestStats() (uint32, error) {
	seq := a.nextSeq()
	return seq, a.send(StreamKey{Kind: KeyStats}, &StatsRequest{Seq: seq})
}

// Close terminates the agent connection and its stream.
func (a *Agent) Close() error {
	if a.stream != nil {
		a.stream.close()
	}
	return a.conn.Close()
}

// Server is the controller-side protocol endpoint.
type Server struct {
	ln      net.Listener
	handler Handler
	// HeartbeatInterval is advertised to agents at registration.
	HeartbeatInterval time.Duration
	// RegisterTimeout bounds the wait for the initial Register.
	RegisterTimeout time.Duration
	// ReadMissBudget is the number of silent heartbeat intervals tolerated
	// before a registered agent's read is abandoned and the connection
	// dropped (default 10). Keep it above any application-level lease
	// budget so lease expiry — not the socket timeout — is the failure
	// detector of record.
	ReadMissBudget int
	// SendQueue bounds each agent stream's live queue (default 256). When a
	// slow agent fills it, new keyed messages coalesce with or evict stale
	// ones; see Stream.
	SendQueue int
	// OnStreamSend, when non-nil, observes every queued message written to
	// an agent with the time it waited in the queue — the per-push
	// dissemination-latency signal. Called from per-agent writer goroutines.
	OnStreamSend func(a *Agent, key StreamKey, queueWait time.Duration)
	// OnStreamDrop, when non-nil, observes keyed messages evicted from a
	// full queue so the control layer can re-drive the lost state. Called
	// from the enqueuing goroutine.
	OnStreamDrop func(a *Agent, key StreamKey, m Message)

	mu     sync.Mutex
	agents map[uint32]*Agent
	closed bool
	wg     sync.WaitGroup
}

// NewServer wraps a listener. Call Serve to start accepting.
func NewServer(ln net.Listener, h Handler) *Server {
	return &Server{
		ln:                ln,
		handler:           h,
		HeartbeatInterval: 100 * time.Millisecond,
		RegisterTimeout:   5 * time.Second,
		ReadMissBudget:    10,
		agents:            make(map[uint32]*Agent),
	}
}

// Addr returns the listen address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Serve accepts agent connections until the listener closes. It always
// returns a non-nil error (net.ErrClosed after Close).
func (s *Server) Serve() error {
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return err
		}
		s.wg.Add(1)
		go s.serveConn(nc)
	}
}

// Close stops the listener and all agent connections, then waits for the
// per-agent goroutines.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	agents := make([]*Agent, 0, len(s.agents))
	for _, a := range s.agents {
		agents = append(agents, a)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, a := range agents {
		_ = a.Close()
	}
	s.wg.Wait()
	return err
}

// Agent returns the connected agent with the given ID.
func (s *Server) Agent(id uint32) (*Agent, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.agents[id]
	return a, ok
}

// NumAgents returns the number of connected agents.
func (s *Server) NumAgents() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.agents)
}

// Agents returns the currently connected agents (no particular order).
func (s *Server) Agents() []*Agent {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Agent, 0, len(s.agents))
	for _, a := range s.agents {
		out = append(out, a)
	}
	return out
}

func (s *Server) serveConn(nc net.Conn) {
	defer s.wg.Done()
	conn := NewConn(nc)
	conn.ReadTimeout = s.RegisterTimeout
	first, err := conn.ReadMessage()
	if err != nil {
		_ = conn.Close()
		return
	}
	reg, ok := first.(*Register)
	if !ok {
		_ = conn.WriteMessage(&ErrorMsg{Code: 1, Text: "expected register"})
		_ = conn.Close()
		return
	}
	if reg.ProtoVersion != Version {
		_ = conn.WriteMessage(&ErrorMsg{Code: 2, Text: ErrVersionMismatch.Error()})
		_ = conn.Close()
		return
	}
	agent := &Agent{ID: reg.ServerID, Cores: reg.Cores, SpeedMilli: reg.SpeedMilli, conn: conn}
	if err := s.handler.OnRegister(agent, reg); err != nil {
		_ = conn.WriteMessage(&ErrorMsg{Code: 3, Text: err.Error()})
		_ = conn.Close()
		return
	}
	// The ack goes out before the agent is published (and before the stream
	// starts), so no queued command can reach the wire ahead of it.
	if err := conn.WriteMessage(&RegisterAck{HeartbeatMillis: uint32(s.HeartbeatInterval / time.Millisecond)}); err != nil {
		_ = conn.Close()
		return
	}
	agent.stream = newStream(conn, s.SendQueue)
	if s.OnStreamSend != nil {
		hook := s.OnStreamSend
		agent.stream.onSent = func(key StreamKey, wait time.Duration) { hook(agent, key, wait) }
	}
	if s.OnStreamDrop != nil {
		hook := s.OnStreamDrop
		agent.stream.onDrop = func(key StreamKey, m Message) { hook(agent, key, m) }
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		agent.stream.writeLoop()
	}()
	s.mu.Lock()
	if old, exists := s.agents[agent.ID]; exists {
		_ = old.Close()
	}
	s.agents[agent.ID] = agent
	s.mu.Unlock()
	// Heartbeats should arrive every interval; tolerate ReadMissBudget
	// silent intervals before declaring the connection dead.
	miss := s.ReadMissBudget
	if miss <= 0 {
		miss = 10
	}
	conn.ReadTimeout = time.Duration(miss) * s.HeartbeatInterval
	for {
		m, err := conn.ReadMessage()
		if err != nil {
			s.dropAgent(agent, err)
			return
		}
		switch t := m.(type) {
		case *Heartbeat:
			s.handler.OnHeartbeat(agent, t)
		default:
			s.handler.OnMessage(agent, m)
		}
	}
}

func (s *Server) dropAgent(a *Agent, err error) {
	s.mu.Lock()
	if s.agents[a.ID] == a {
		delete(s.agents, a.ID)
	}
	closed := s.closed
	s.mu.Unlock()
	if a.stream != nil {
		a.stream.close()
	}
	_ = a.conn.Close()
	if !closed || !errors.Is(err, net.ErrClosed) {
		s.handler.OnDisconnect(a, err)
	}
}

// Client is the agent-side protocol endpoint. The caller owns the receive
// loop: call Receive repeatedly and dispatch on the returned message.
// Heartbeats and replies may be sent from any goroutine.
type Client struct {
	conn *Conn
	// Interval is the heartbeat interval the controller requested.
	Interval time.Duration
	serverID uint32
}

// DialAgent connects to the controller, registers, and returns the client
// after the controller's ack. The controller writes that ack before it
// publishes the agent, so Server.Agent and Server.NumAgents may not see the
// agent yet when DialAgent returns: a caller that needs the controller-side
// handle must wait for it.
func DialAgent(addr string, serverID uint32, cores uint16, speedMilli uint32) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return RegisterAgentConn(nc, serverID, cores, speedMilli)
}

// RegisterAgentConn registers over an already-established connection —
// the injectable variant of DialAgent (reconnect loops and fault-injection
// tests own the dial). On failure the connection is closed.
func RegisterAgentConn(nc net.Conn, serverID uint32, cores uint16, speedMilli uint32) (*Client, error) {
	conn := NewConn(nc)
	reg := &Register{ProtoVersion: Version, ServerID: serverID, Cores: cores, SpeedMilli: speedMilli}
	if err := conn.WriteMessage(reg); err != nil {
		_ = conn.Close()
		return nil, err
	}
	conn.ReadTimeout = 5 * time.Second
	m, err := conn.ReadMessage()
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	switch t := m.(type) {
	case *RegisterAck:
		conn.ReadTimeout = 0
		return &Client{
			conn:     conn,
			Interval: time.Duration(t.HeartbeatMillis) * time.Millisecond,
			serverID: serverID,
		}, nil
	case *ErrorMsg:
		_ = conn.Close()
		return nil, fmt.Errorf("ctrlproto: registration rejected: %s", t.Text)
	default:
		_ = conn.Close()
		return nil, fmt.Errorf("ctrlproto: unexpected %v during registration: %w", m.Type(), ErrBadMessage)
	}
}

// ServerID returns the identity this client registered with.
func (c *Client) ServerID() uint32 { return c.serverID }

// Heartbeat sends a load report.
func (c *Client) Heartbeat(hb *Heartbeat) error {
	hb.ServerID = c.serverID
	return c.conn.WriteMessage(hb)
}

// Receive blocks for the next controller command.
func (c *Client) Receive() (Message, error) { return c.conn.ReadMessage() }

// Ack acknowledges a command. While more commands are already buffered for
// Receive, the ack waits in the connection's pending buffer and goes out
// with the next write or before Receive blocks on the socket (see Conn), so
// K commands that arrive in one read cost one write of K acks. A deferred
// ack reports nil; a failure to write it surfaces on a later send or
// Receive.
func (c *Client) Ack(seq uint32) error { return c.conn.writeDeferred(&Ack{Seq: seq}) }

// SendError reports a command failure.
func (c *Client) SendError(seq uint32, code uint16, text string) error {
	return c.conn.WriteMessage(&ErrorMsg{Seq: seq, Code: code, Text: text})
}

// SendMigrateState ships serialized cell state to the controller.
func (c *Client) SendMigrateState(cell uint16, state []byte) error {
	return c.conn.WriteMessage(&MigrateState{Cell: cell, State: state})
}

// SendCellOwned declares the cells this agent currently runs (sent after
// (re)registration so the controller can reconcile).
func (c *Client) SendCellOwned(cells []uint16) error {
	return c.conn.WriteMessage(&CellOwned{ServerID: c.serverID, Cells: cells})
}

// SendCellLoad reports one cell's compute demand.
func (c *Client) SendCellLoad(cell uint16, milliCores uint32, tti uint64) error {
	return c.conn.WriteMessage(&CellLoad{ServerID: c.serverID, Cell: cell, MilliCores: milliCores, TTI: tti})
}

// SendStatsReport answers a StatsRequest with the encoded snapshot.
func (c *Client) SendStatsReport(seq uint32, data []byte) error {
	return c.conn.WriteMessage(&StatsReport{Seq: seq, ServerID: c.serverID, Data: data})
}

// Close terminates the connection.
func (c *Client) Close() error { return c.conn.Close() }
