package p4rt

import (
	"bufio"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"sfp/internal/nf"
	"sfp/internal/packet"
	"sfp/internal/vswitch"
)

// ClientOptions tunes the client's robustness behavior. The zero value
// gives a hardened client with sane defaults (see withDefaults).
type ClientOptions struct {
	// DialTimeout bounds each (re)connect attempt. Default 2s.
	DialTimeout time.Duration
	// CallTimeout is the per-RPC deadline applied to the connection for
	// the whole write+read round trip. Default 5s; negative disables.
	CallTimeout time.Duration
	// MaxAttempts is the total number of tries for a retryable RPC
	// (first attempt included). Default 4; 1 disables retry.
	MaxAttempts int
	// BackoffBase and BackoffMax bound the exponential backoff between
	// retries: attempt n sleeps jitter(min(BackoffBase·2ⁿ⁻¹, BackoffMax)).
	// Defaults 10ms and 1s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed drives the deterministic backoff jitter. Default 1.
	Seed int64
	// MaxInFlight bounds how many RPCs (sync and async combined) may be
	// outstanding at once; excess callers block until a slot frees.
	// Default 64.
	MaxInFlight int
	// Dialer overrides how connections are made (fault injection,
	// testing). Default net.DialTimeout("tcp", addr, DialTimeout).
	Dialer func(addr string) (net.Conn, error)
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.DialTimeout == 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.CallTimeout == 0 {
		o.CallTimeout = 5 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 4
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 10 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = time.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 64
	}
	return o
}

// ErrBroken reports that the previous RPC left the connection in an
// unknown framing state and the client could not re-establish a clean one.
var ErrBroken = errors.New("p4rt: connection broken")

// Client is the controller-side handle to a remote switch. It treats the
// device channel as unreliable: every call carries a deadline and a
// monotonically increasing request ID; any mid-frame error poisons the
// connection (it is never reused — a stale half-read stream could serve
// the previous call's response to the next one), and retryable RPCs
// transparently reconnect with bounded exponential backoff. Mutating RPCs
// are made retry-safe by the server's (client, request-ID) dedup window.
//
// Calls are pipelined: a caller writes its frame and parks on a channel
// while a per-connection reader goroutine matches responses to waiters by
// the echoed request ID, so many RPCs (from many goroutines, or via
// Go/Flush from one) share a single connection with their round trips in
// flight simultaneously. Retry backoff sleeps hold no locks, so one flaky
// call never stalls unrelated callers.
type Client struct {
	addr     string
	opts     ClientOptions
	clientID uint64 // random identity for the server dedup window

	mu     sync.Mutex // guards cs, closed, nextID
	cs     *connState
	closed bool   // Close was called; no redials
	nextID uint64 // monotonically increasing request ID

	// dialMu serializes (re)dials so a burst of callers hitting a broken
	// conn produces one new connection, not one each. Never held together
	// with mu.
	dialMu sync.Mutex

	rngMu sync.Mutex
	rng   *rand.Rand

	// window is the bounded in-flight semaphore (MaxInFlight slots).
	window chan struct{}

	// bufs pools marshal buffers: one frame assembly per call, reused.
	bufs sync.Pool

	asyncWG  sync.WaitGroup
	asyncMu  sync.Mutex
	asyncErr error
}

// callResult is what a reader (or a failure) delivers to a parked caller.
type callResult struct {
	resp *Response
	err  error
}

// connState is one live connection plus its in-flight bookkeeping. It is
// owned by the Client but survives independently once poisoned: late
// readers and timed-out callers resolve against it without racing the
// Client's replacement connection.
type connState struct {
	conn net.Conn

	mu      sync.Mutex
	pending map[uint64]chan callResult
	broken  bool
	err     error
}

// enqueue registers a waiter for a request ID. It fails fast when the
// connection is already poisoned.
func (cs *connState) enqueue(id uint64) (chan callResult, error) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.broken {
		return nil, cs.err
	}
	ch := make(chan callResult, 1)
	cs.pending[id] = ch
	return ch, nil
}

// fail poisons the connection and delivers err to every parked caller.
// Idempotent: the first failure wins. The conn is closed so the reader
// goroutine (and the server side) unblock.
func (cs *connState) fail(err error) {
	cs.mu.Lock()
	if cs.broken {
		cs.mu.Unlock()
		return
	}
	cs.broken = true
	cs.err = err
	waiters := cs.pending
	cs.pending = make(map[uint64]chan callResult)
	cs.mu.Unlock()
	cs.conn.Close()
	for _, ch := range waiters {
		ch <- callResult{err: err}
	}
}

// isBroken reports whether the connection is poisoned.
func (cs *connState) isBroken() bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.broken
}

// readLoop is the per-connection background reader: it decodes response
// frames and hands each to the caller whose request ID it echoes. An
// unmatched ID means the stream is desynchronized (a stale or reordered
// frame): the whole connection is poisoned rather than risk delivering
// one call's response to another.
func (cs *connState) readLoop() {
	r := bufio.NewReader(cs.conn)
	for {
		raw, err := readFrame(r)
		if err != nil {
			cs.fail(err)
			return
		}
		var resp Response
		if err := resp.UnmarshalJSON(raw); err != nil {
			cs.fail(err)
			return
		}
		cs.mu.Lock()
		ch, ok := cs.pending[resp.ID]
		if ok {
			delete(cs.pending, resp.ID)
		}
		broken := cs.broken
		cs.mu.Unlock()
		if broken {
			return
		}
		if !ok {
			cs.fail(fmt.Errorf("p4rt: desynchronized stream: unmatched response ID %d", resp.ID))
			return
		}
		ch <- callResult{resp: &resp}
	}
}

// Dial connects to a switch daemon with default hardening options.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	return DialOptions(addr, ClientOptions{DialTimeout: timeout})
}

// DialOptions connects to a switch daemon with explicit options.
func DialOptions(addr string, opts ClientOptions) (*Client, error) {
	opts = opts.withDefaults()
	c := &Client{
		addr:     addr,
		opts:     opts,
		clientID: randomClientID(),
		nextID:   1,
		rng:      rand.New(rand.NewSource(opts.Seed)),
		window:   make(chan struct{}, opts.MaxInFlight),
	}
	c.bufs.New = func() any { b := make([]byte, 0, 1024); return &b }
	if _, err := c.connect(); err != nil {
		return nil, err
	}
	return c, nil
}

// randomClientID draws a non-zero 64-bit identity. Uniqueness across
// processes matters (the server dedups on it); determinism does not.
func randomClientID() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err == nil {
		if id := binary.BigEndian.Uint64(b[:]); id != 0 {
			return id
		}
	}
	return uint64(time.Now().UnixNano()) | 1
}

// Close releases the connection. The client cannot be used afterwards;
// outstanding calls fail with ErrBroken.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	cs := c.cs
	c.cs = nil
	c.mu.Unlock()
	if cs == nil {
		return nil
	}
	cs.fail(ErrBroken)
	return nil
}

// connect returns a healthy connection, dialing a fresh one if the
// current connection is poisoned (or absent). Dials happen under dialMu
// only — concurrent callers on a healthy conn are never blocked by a
// redial, and a burst of callers hitting a broken conn share one dial.
func (c *Client) connect() (*connState, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrBroken
	}
	cs := c.cs
	c.mu.Unlock()
	if cs != nil && !cs.isBroken() {
		return cs, nil
	}
	c.dialMu.Lock()
	defer c.dialMu.Unlock()
	// Double-check: another caller may have redialed while we waited.
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrBroken
	}
	cs = c.cs
	c.mu.Unlock()
	if cs != nil && !cs.isBroken() {
		return cs, nil
	}
	var (
		conn net.Conn
		err  error
	)
	if c.opts.Dialer != nil {
		conn, err = c.opts.Dialer(c.addr)
	} else {
		conn, err = net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
	}
	if err != nil {
		return nil, err
	}
	ncs := &connState{conn: conn, pending: make(map[uint64]chan callResult)}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return nil, ErrBroken
	}
	c.cs = ncs
	c.mu.Unlock()
	go ncs.readLoop()
	return ncs, nil
}

// backoff sleeps the bounded-exponential, seeded-jitter delay before
// retry attempt n (n ≥ 1). No client lock is held while sleeping, so a
// call in its backoff window never stalls other callers.
func (c *Client) backoff(n int) {
	d := c.opts.BackoffBase << uint(n-1)
	if d <= 0 || d > c.opts.BackoffMax {
		d = c.opts.BackoffMax
	}
	// Jitter in [d/2, d]: deterministic under Seed, avoids thundering herds.
	half := int64(d / 2)
	if half > 0 {
		c.rngMu.Lock()
		d = time.Duration(half + c.rng.Int63n(half+1))
		c.rngMu.Unlock()
	}
	time.Sleep(d)
}

// retryable reports whether an RPC may be reissued after a transport
// failure. Ping/Layout/Stats are read-only; InstallPhysical, Allocate,
// AllocateAt, and Deallocate mutate but are covered by the server's
// request-ID dedup window, so a replay of an executed install is a no-op.
// Inject is neither (it perturbs data-plane counters and has no dedup).
func retryable(t MsgType) bool {
	switch t {
	case MsgPing, MsgLayout, MsgStats, MsgDumpState,
		MsgInstallPhysical, MsgAllocate, MsgAllocateAt, MsgDeallocate,
		MsgBatch:
		return true
	}
	return false
}

// call performs one synchronous RPC under the in-flight window.
func (c *Client) call(req *Request) (*Response, error) {
	c.window <- struct{}{}
	defer func() { <-c.window }()
	return c.do(req)
}

// Go issues req asynchronously: it claims an in-flight slot (blocking
// only when MaxInFlight requests are already outstanding), then runs the
// full retry/reconnect state machine in a background goroutine, its round
// trip pipelined with other calls on the shared connection. done, if
// non-nil, receives the outcome; with a nil done the first error is
// collected and returned by the next Flush.
func (c *Client) Go(req *Request, done func(*Response, error)) {
	c.window <- struct{}{}
	c.asyncWG.Add(1)
	go func() {
		defer c.asyncWG.Done()
		resp, err := c.do(req)
		<-c.window
		if done != nil {
			done(resp, err)
			return
		}
		if err != nil {
			c.asyncMu.Lock()
			if c.asyncErr == nil {
				c.asyncErr = err
			}
			c.asyncMu.Unlock()
		}
	}()
}

// Flush waits for every Go-issued request to complete and returns the
// first error among those issued without a done callback (then clears it).
func (c *Client) Flush() error {
	c.asyncWG.Wait()
	c.asyncMu.Lock()
	defer c.asyncMu.Unlock()
	err := c.asyncErr
	c.asyncErr = nil
	return err
}

// do runs one RPC with deadline, desync detection, and (for retryable
// types) reconnect + retry. The request ID is assigned once, so every
// retry replays the same identity into the server's dedup window.
// Application-level errors from the switch are returned as-is and never
// retried, except those the server marks Transient (the target did not
// execute the request).
func (c *Client) do(req *Request) (*Response, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrBroken
	}
	req.Client = c.clientID
	req.ID = c.nextID
	c.nextID++
	c.mu.Unlock()

	// Assemble the frame once into a pooled buffer: 4-byte length header
	// placeholder, hand-encoded JSON body (no reflection, no compaction
	// pass), header patched in place. One buffer, one conn.Write per
	// attempt — no per-call allocations of the frame and no interleaving
	// with other pipelined callers' frames.
	bufp := c.bufs.Get().(*[]byte)
	frame := append((*bufp)[:0], 0, 0, 0, 0)
	frame = req.appendJSON(frame)
	defer func() {
		*bufp = frame[:0] // keep any growth for the next caller
		c.bufs.Put(bufp)
	}()
	if len(frame)-4 > maxFrame {
		return nil, fmt.Errorf("p4rt: frame of %d bytes exceeds limit", len(frame)-4)
	}
	binary.BigEndian.PutUint32(frame[:4], uint32(len(frame)-4))

	attempts := 1
	if retryable(req.Type) {
		attempts = c.opts.MaxAttempts
	}
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			c.backoff(attempt - 1)
		}
		cs, err := c.connect()
		if err != nil {
			if errors.Is(err, ErrBroken) {
				return nil, err
			}
			lastErr = err
			continue
		}
		resp, err := c.roundTrip(cs, req.ID, frame)
		if err != nil {
			// roundTrip poisoned the connection; the next attempt redials.
			lastErr = err
			continue
		}
		if !resp.OK {
			if resp.Transient && attempt < attempts {
				lastErr = errors.New(resp.Error)
				continue
			}
			return resp, errors.New(resp.Error)
		}
		return resp, nil
	}
	if attempts == 1 {
		return nil, lastErr
	}
	return nil, fmt.Errorf("p4rt: %s failed after %d attempts: %w", req.Type, attempts, lastErr)
}

// roundTrip writes one framed request and parks until the reader
// goroutine delivers the matching response or the per-call deadline
// expires. Any failure — write error, timeout, reader-detected desync —
// poisons the connection: responses on one conn arrive in order, so a
// call abandoned mid-stream leaves every later in-flight call behind a
// frame nobody will consume.
func (c *Client) roundTrip(cs *connState, id uint64, frame []byte) (*Response, error) {
	ch, err := cs.enqueue(id)
	if err != nil {
		return nil, err
	}
	if _, err := cs.conn.Write(frame); err != nil {
		cs.fail(err)
		// fail delivered the error to ch; fall through to collect it.
	}
	var timeout <-chan time.Time
	if c.opts.CallTimeout > 0 {
		timer := time.NewTimer(c.opts.CallTimeout)
		defer timer.Stop()
		timeout = timer.C
	}
	select {
	case res := <-ch:
		return res.resp, res.err
	case <-timeout:
		cs.fail(fmt.Errorf("p4rt: call timed out after %v", c.opts.CallTimeout))
		res := <-ch
		return res.resp, res.err
	}
}

// Ping checks liveness.
func (c *Client) Ping() error {
	_, err := c.call(&Request{Type: MsgPing})
	return err
}

// InstallPhysical pre-installs a physical NF on the remote switch.
func (c *Client) InstallPhysical(stage int, t nf.Type, capacity int) error {
	_, err := c.call(&Request{Type: MsgInstallPhysical, Stage: stage, NFType: t.String(), Capacity: capacity})
	return err
}

// Allocate installs a tenant SFC using the switch's first-fit folding and
// returns the landing placements and pass count.
func (c *Client) Allocate(sfc *vswitch.SFC) ([]vswitch.Placement, int, error) {
	resp, err := c.call(&Request{Type: MsgAllocate, SFC: FromSFC(sfc)})
	if err != nil {
		return nil, 0, err
	}
	pls, err := toPlacements(resp.Placements)
	return pls, resp.Passes, err
}

// AllocateAt installs a tenant SFC at control-plane-chosen placements.
func (c *Client) AllocateAt(sfc *vswitch.SFC, placements []vswitch.Placement) (int, error) {
	resp, err := c.call(&Request{
		Type: MsgAllocateAt, SFC: FromSFC(sfc), Placements: fromPlacements(placements),
	})
	if err != nil {
		return 0, err
	}
	return resp.Passes, nil
}

// Deallocate removes a tenant's rules.
func (c *Client) Deallocate(tenant uint32) error {
	_, err := c.call(&Request{Type: MsgDeallocate, Tenant: tenant})
	return err
}

// Batch executes an ordered list of mutating sub-ops in one frame and one
// server dispatch, all-or-nothing: on success every sub-op applied and the
// per-op results are returned; on error none did (the server rolled back).
// Build ops with OpInstallPhysical/OpAllocate/OpAllocateAt/OpDeallocate.
func (c *Client) Batch(ops []BatchOp) ([]BatchResult, error) {
	resp, err := c.call(&Request{Type: MsgBatch, Ops: ops})
	if err != nil {
		return nil, err
	}
	return resp.Results, nil
}

// GoBatch is the async form of Batch, pipelined behind Go/Flush. A nil
// done routes errors to the next Flush, like Go.
func (c *Client) GoBatch(ops []BatchOp, done func([]BatchResult, error)) {
	if done == nil {
		c.Go(&Request{Type: MsgBatch, Ops: ops}, nil)
		return
	}
	c.Go(&Request{Type: MsgBatch, Ops: ops}, func(resp *Response, err error) {
		if err != nil {
			done(nil, err)
			return
		}
		done(resp.Results, nil)
	})
}

// Layout reads the per-stage physical NF names.
func (c *Client) Layout() ([][]string, error) {
	resp, err := c.call(&Request{Type: MsgLayout})
	if err != nil {
		return nil, err
	}
	return resp.Layout, nil
}

// DumpState reads back the switch's full installed configuration
// (physical NFs and tenant allocations) for reconciliation. Read-only:
// retried like Layout/Stats.
func (c *Client) DumpState() (*StateDump, error) {
	resp, err := c.call(&Request{Type: MsgDumpState})
	if err != nil {
		return nil, err
	}
	if resp.State == nil {
		// A switch with nothing installed legitimately dumps empty.
		return &StateDump{}, nil
	}
	return resp.State, nil
}

// Stats reads switch resource counters.
func (c *Client) Stats() (Stats, error) {
	resp, err := c.call(&Request{Type: MsgStats})
	if err != nil {
		return Stats{}, err
	}
	if resp.Stats == nil {
		return Stats{}, fmt.Errorf("p4rt: stats missing from response")
	}
	return *resp.Stats, nil
}

// Inject sends one wire-format packet through the remote pipeline at the
// given simulated timestamp and returns the processing outcome.
func (c *Client) Inject(wire []byte, nowNs float64) (InjectResult, error) {
	resp, err := c.call(&Request{Type: MsgInject, Wire: wire, NowNs: nowNs})
	if err != nil {
		return InjectResult{}, err
	}
	if resp.Inject == nil {
		return InjectResult{}, fmt.Errorf("p4rt: inject result missing")
	}
	return *resp.Inject, nil
}

// GoInject is Inject issued asynchronously (see Go): the round trip is
// pipelined with other in-flight requests on the shared connection, and
// done receives the outcome. Use Flush to wait for completion.
func (c *Client) GoInject(wire []byte, nowNs float64, done func(InjectResult, error)) {
	c.Go(&Request{Type: MsgInject, Wire: wire, NowNs: nowNs}, func(resp *Response, err error) {
		if err != nil {
			done(InjectResult{}, err)
			return
		}
		if resp.Inject == nil {
			done(InjectResult{}, fmt.Errorf("p4rt: inject result missing"))
			return
		}
		done(*resp.Inject, nil)
	})
}

// VSwitchTarget adapts a vswitch.VSwitch to the server Target interface.
type VSwitchTarget struct {
	V *vswitch.VSwitch
}

// InstallPhysical implements Target.
func (t *VSwitchTarget) InstallPhysical(stage int, typ nf.Type, capacity int) error {
	_, err := t.V.InstallPhysicalNF(stage, typ, capacity)
	return err
}

// Allocate implements Target.
func (t *VSwitchTarget) Allocate(spec *SFCSpec) ([]PlacementSpec, int, error) {
	sfc, err := spec.ToSFC()
	if err != nil {
		return nil, 0, err
	}
	alloc, err := t.V.Allocate(sfc)
	if err != nil {
		return nil, 0, err
	}
	return fromPlacements(alloc.Placements), alloc.Passes, nil
}

// AllocateAt implements Target.
func (t *VSwitchTarget) AllocateAt(spec *SFCSpec, placements []PlacementSpec) (int, error) {
	sfc, err := spec.ToSFC()
	if err != nil {
		return 0, err
	}
	pls, err := toPlacements(placements)
	if err != nil {
		return 0, err
	}
	alloc, err := t.V.AllocateAt(sfc, pls)
	if err != nil {
		return 0, err
	}
	return alloc.Passes, nil
}

// Deallocate implements Target.
func (t *VSwitchTarget) Deallocate(tenant uint32) error {
	return t.V.Deallocate(tenant)
}

// RemovePhysical implements PhysicalRemover (batch rollback of an
// install_physical sub-op).
func (t *VSwitchTarget) RemovePhysical(stage int, typ nf.Type) error {
	return t.V.RemovePhysicalNF(stage, typ)
}

// TenantSnapshot implements TenantSnapshotter: capture a live tenant's
// chain and placements so a batched deallocate can be undone. The restore
// closure holds the native chain spec and placements directly — no
// wire-form round trip, since the undo is discarded on batch success.
func (t *VSwitchTarget) TenantSnapshot(tenant uint32) (func() error, error) {
	alloc := t.V.Allocations(tenant)
	if alloc == nil {
		return nil, fmt.Errorf("p4rt: tenant %d has no allocation to snapshot", tenant)
	}
	if alloc.Spec == nil {
		return nil, fmt.Errorf("p4rt: tenant %d allocation carries no chain spec", tenant)
	}
	spec, pls := alloc.Spec, alloc.Placements
	return func() error {
		_, err := t.V.AllocateAt(spec, pls)
		return err
	}, nil
}

// AllocateBatch implements BatchAllocator: realize a run of allocate_at
// sub-ops in one pass over the data plane (vswitch.AllocateBatch).
func (t *VSwitchTarget) AllocateBatch(items []BatchAllocItem) ([]int, error) {
	batch := make([]vswitch.BatchItem, len(items))
	for i, it := range items {
		sfc, err := it.SFC.ToSFC()
		if err != nil {
			return nil, err
		}
		pls, err := toPlacements(it.Placements)
		if err != nil {
			return nil, err
		}
		batch[i] = vswitch.BatchItem{SFC: sfc, Placements: pls}
	}
	allocs, err := t.V.AllocateBatch(batch)
	if err != nil {
		return nil, err
	}
	passes := make([]int, len(allocs))
	for i, a := range allocs {
		passes[i] = a.Passes
	}
	return passes, nil
}

// DumpState implements StateDumper: export the switch's installed
// configuration in canonical order.
func (t *VSwitchTarget) DumpState() (*StateDump, error) {
	return FromState(t.V.ExportState()), nil
}

// Layout implements Target.
func (t *VSwitchTarget) Layout() [][]string {
	raw := t.V.Layout()
	out := make([][]string, len(raw))
	for s, types := range raw {
		for _, typ := range types {
			out[s] = append(out[s], typ.String())
		}
	}
	return out
}

// Inject implements Target: parse the wire bytes, run the pipeline, and
// deparse the egress packet.
func (t *VSwitchTarget) Inject(wire []byte, nowNs float64) (InjectResult, error) {
	p, err := packet.Parse(wire, false)
	if err != nil {
		return InjectResult{}, err
	}
	res := t.V.Process(p, nowNs)
	out := InjectResult{
		LatencyNs:     res.LatencyNs,
		Passes:        res.Passes,
		Dropped:       res.Dropped,
		EgressPort:    res.EgressPort,
		TablesApplied: res.TablesApplied,
	}
	if !res.Dropped {
		out.Wire = packet.Deparse(p)
	}
	return out, nil
}

// Stats implements Target.
func (t *VSwitchTarget) Stats() Stats {
	return Stats{
		Stages:        t.V.Pipe.Cfg.Stages,
		BlocksUsed:    t.V.Pipe.BlocksUsed(),
		EntriesUsed:   t.V.Pipe.EntriesUsed(),
		BandwidthGbps: t.V.BandwidthUsed(),
		Tenants:       t.V.Tenants(),
		Processed:     t.V.Pipe.Processed(),
		Recirculated:  t.V.Pipe.Recirculated(),
	}
}
