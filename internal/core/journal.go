package core

import (
	"bytes"
	"fmt"
	"io"

	"sfp/internal/binrec"
	"sfp/internal/vswitch"
)

// The controller's durability protocol: every mutating transition writes
// an intent record to the write-ahead journal and fsyncs it BEFORE the
// first southbound (data-plane) effect, and a commit record after the
// transition fully applied. Recovery replays the journal with presumed
// abort: a begin record without its commit means the crash happened
// somewhere inside the southbound window, so the transition is discarded
// and Reconcile repairs the switch back to the last committed intent.
//
// Each journal record is one kind byte followed by its payload. The
// controller sets recBinary in the kind byte and writes the payload in the
// binrec format: a version byte, then the payload's fields, with full SFC
// definitions encoded straight from vswitch.SFC. Bare commit and abort
// markers are the kind byte alone. A kind byte without recBinary is a
// record from a controller that wrote JSON payloads; such records are
// only replayed (legacy.go), so journals written before the binary format
// still recover, and the json tags on the record types below are those
// records' field names. Either way the kind byte's low bits select the same
// kind, so one kind list drives encoding, replay and txnBoundary.

// recBinary marks a record whose payload is in the binrec format.
const recBinary byte = 0x80

// Journal record kinds.
const (
	recSnapshot byte = iota + 1
	recProvisionBegin
	recProvisionCommit
	recProvisionAbort
	recArriveRegister
	recPlaceBegin
	recPlaceCommit
	recPlaceAbort
	// Single-tenant departures: written by older controllers, now only
	// replayed (as one-entry departMany transactions).
	recDepartBegin
	recDepartCommit
	recDepartAbort
	recReconfigBegin
	recReconfigCommit
	recReconfigAbort
	recDepartManyBegin
	recDepartManyCommit
	recDepartManyAbort
)

// liveEntry records one live chain's virtual stages.
type liveEntry struct {
	Tenant uint32 `json:"t"`
	Stages []int  `json:"k"`
}

// stateRec is the full-controller-state payload used by snapshots and
// provision/reconfigure begin records.
type stateRec struct {
	Provisioned bool
	SFCs        []*vswitch.SFC
	Live        []liveEntry
	Placed      []uint32
	Layout      [][]bool
	Info        *ProvisionInfo
}

// registerRec carries the SFCs an ArriveMany registered.
type registerRec struct {
	SFCs []*vswitch.SFC
}

// placeRec is a place (replan+install) begin record: the delta of chains
// the replan newly admitted plus the post-replan physical layout.
type placeRec struct {
	Live   []liveEntry `json:"live,omitempty"`
	Layout [][]bool    `json:"layout,omitempty"`
}

// abortRec is a place abort: which registered tenants were withdrawn
// wholesale after the install failed (the rest of the pending delta stays
// admitted in the planner, pending the next install).
type abortRec struct {
	Tenants []uint32 `json:"tenants,omitempty"`
}

// departRec identifies the tenant a departure targets and whether it held
// data-plane rules when the departure began.
type departRec struct {
	Tenant uint32 `json:"tenant"`
	Placed bool   `json:"placed,omitempty"`
}

// departManyRec is a batch-departure begin record: every tenant the batch
// removes and whether each held data-plane rules. The matching commit
// record removes them all; a commit carrying an abortRec payload removes
// only the listed prefix (the planner refused partway and the rest were
// restored).
type departManyRec struct {
	Entries []departRec `json:"entries"`
}

// encodeRec frames one binary journal record: kind byte, then the
// payload (nothing for a nil payload: a bare commit/abort marker).
func encodeRec(kind byte, payload any) ([]byte, error) {
	b := []byte{recBinary | kind}
	if payload == nil {
		return b, nil
	}
	if st, ok := payload.(*stateRec); ok {
		var buf bytes.Buffer
		err := st.writeRec(&buf, kind)
		return buf.Bytes(), err
	}
	b = append(b, binrec.Version)
	switch p := payload.(type) {
	case *registerRec:
		b = binrec.AppendUvarint(b, uint64(len(p.SFCs)))
		for _, s := range p.SFCs {
			var err error
			if b, err = binrec.AppendSFC(b, s); err != nil {
				return nil, fmt.Errorf("core: journal encode: %w", err)
			}
		}
	case *placeRec:
		var err error
		if b, err = appendLive(b, p.Live); err != nil {
			return nil, err
		}
		b = appendLayout(b, p.Layout)
	case *abortRec:
		b = appendTenants(b, p.Tenants)
	case *departRec:
		b = appendDepart(b, *p)
	case *departManyRec:
		b = binrec.AppendUvarint(b, uint64(len(p.Entries)))
		for _, e := range p.Entries {
			b = appendDepart(b, e)
		}
	default:
		return nil, fmt.Errorf("core: journal encode: no encoding for %T", payload)
	}
	return b, nil
}

// stateRec flag bits.
const (
	stateProvisioned = 1 << iota
	stateInfo        // a ProvisionInfo follows
	stateFlags       = 1<<iota - 1
)

// writeRec writes the state as one binary record of the given kind to w
// through a small buffer, encoding one SFC at a time: a snapshot streams
// the fleet without a second copy of it in memory.
func (st *stateRec) writeRec(w io.Writer, kind byte) error {
	const chunk = 32 << 10
	b := make([]byte, 0, 2*chunk)
	var flags byte
	if st.Provisioned {
		flags |= stateProvisioned
	}
	if st.Info != nil {
		flags |= stateInfo
	}
	b = append(b, recBinary|kind, binrec.Version, flags)
	if st.Info != nil {
		b = appendInfo(b, st.Info)
	}
	b = binrec.AppendUvarint(b, uint64(len(st.SFCs)))
	for _, s := range st.SFCs {
		var err error
		if b, err = binrec.AppendSFC(b, s); err != nil {
			return fmt.Errorf("core: journal encode: %w", err)
		}
		if len(b) >= chunk {
			if _, err := w.Write(b); err != nil {
				return err
			}
			b = b[:0]
		}
	}
	b, err := appendLive(b, st.Live)
	if err != nil {
		return err
	}
	b = appendTenants(b, st.Placed)
	b = appendLayout(b, st.Layout)
	_, err = w.Write(b)
	return err
}

func appendInfo(b []byte, in *ProvisionInfo) []byte {
	b = binrec.AppendVarint(b, int64(in.Requested))
	b = binrec.AppendVarint(b, int64(in.Used))
	b = binrec.AppendBool(b, in.FellBack)
	b = binrec.AppendString(b, in.SolverStatus)
	b = binrec.AppendUvarint(b, uint64(len(in.Attempts)))
	for _, a := range in.Attempts {
		b = binrec.AppendString(b, a)
	}
	return b
}

func appendLive(b []byte, live []liveEntry) ([]byte, error) {
	b = binrec.AppendUvarint(b, uint64(len(live)))
	for _, e := range live {
		b = binrec.AppendUvarint(b, uint64(e.Tenant))
		b = binrec.AppendUvarint(b, uint64(len(e.Stages)))
		for _, k := range e.Stages {
			if k < 0 {
				return nil, fmt.Errorf("core: journal encode: tenant %d has stage %d", e.Tenant, k)
			}
			b = binrec.AppendUvarint(b, uint64(k))
		}
	}
	return b, nil
}

func appendLayout(b []byte, layout [][]bool) []byte {
	b = binrec.AppendUvarint(b, uint64(len(layout)))
	for _, row := range layout {
		b = binrec.AppendBools(b, row)
	}
	return b
}

func appendTenants(b []byte, tenants []uint32) []byte {
	b = binrec.AppendUvarint(b, uint64(len(tenants)))
	for _, t := range tenants {
		b = binrec.AppendUvarint(b, uint64(t))
	}
	return b
}

func appendDepart(b []byte, d departRec) []byte {
	return binrec.AppendBool(binrec.AppendUvarint(b, uint64(d.Tenant)), d.Placed)
}

// decodeRec splits a journal record into its kind (recBinary cleared) and
// its payload: the record type encodeRec takes for that kind, or nil for
// a bare marker. Binary and legacy JSON records of one kind decode to the
// same payload type.
func decodeRec(rec []byte) (byte, any, error) {
	if len(rec) == 0 {
		return 0, nil, fmt.Errorf("core: empty journal record")
	}
	kind, body := rec[0]&^recBinary, rec[1:]
	if rec[0]&recBinary == 0 {
		p, err := decodeLegacy(kind, body)
		return kind, p, err
	}
	if kind < recSnapshot || kind > recDepartManyAbort {
		return 0, nil, fmt.Errorf("core: unknown journal record kind %d", kind)
	}
	if len(body) == 0 {
		if hasPayload(kind) {
			return 0, nil, fmt.Errorf("core: journal record kind %d lacks its payload", kind)
		}
		return kind, nil, nil
	}
	d := binrec.NewDecoder(body)
	if v := d.Byte(); v != binrec.Version {
		return 0, nil, fmt.Errorf("core: journal record kind %d has format version %d, want %d", kind, v, binrec.Version)
	}
	var p any
	switch kind {
	case recSnapshot, recProvisionBegin, recReconfigBegin:
		p = decodeState(d)
	case recArriveRegister:
		r := &registerRec{SFCs: make([]*vswitch.SFC, d.Count(1))}
		for i := range r.SFCs {
			r.SFCs[i] = d.SFC()
		}
		p = r
	case recPlaceBegin:
		p = &placeRec{Live: decodeLive(d), Layout: decodeLayout(d)}
	case recPlaceAbort, recDepartManyCommit, recDepartCommit:
		p = &abortRec{Tenants: decodeTenants(d)}
	case recDepartBegin:
		dr := decodeDepart(d)
		p = &dr
	case recDepartManyBegin:
		r := &departManyRec{Entries: make([]departRec, d.Count(2))}
		for i := range r.Entries {
			r.Entries[i] = decodeDepart(d)
		}
		p = r
	default:
		return 0, nil, fmt.Errorf("core: journal record kind %d carries a payload", kind)
	}
	if err := d.Finish(); err != nil {
		return 0, nil, fmt.Errorf("core: replay record kind %d: %w", kind, err)
	}
	return kind, p, nil
}

// hasPayload reports whether records of a kind always carry a payload
// (the rest are bare markers; a departmany commit may carry one).
func hasPayload(kind byte) bool {
	switch kind {
	case recSnapshot, recProvisionBegin, recReconfigBegin, recArriveRegister,
		recPlaceBegin, recPlaceAbort, recDepartBegin, recDepartManyBegin:
		return true
	}
	return false
}

func decodeState(d *binrec.Decoder) *stateRec {
	flags := d.Byte()
	if flags&^stateFlags != 0 {
		d.Fail(fmt.Errorf("core: state record flags %#x", flags))
		return nil
	}
	st := &stateRec{Provisioned: flags&stateProvisioned != 0}
	if flags&stateInfo != 0 {
		st.Info = &ProvisionInfo{
			Requested:    Algorithm(d.Int()),
			Used:         Algorithm(d.Int()),
			FellBack:     d.Bool(),
			SolverStatus: d.Str(),
		}
		if n := d.Count(1); n > 0 {
			st.Info.Attempts = make([]string, n)
			for i := range st.Info.Attempts {
				st.Info.Attempts[i] = d.Str()
			}
		}
	}
	if n := d.Count(1); n > 0 {
		st.SFCs = make([]*vswitch.SFC, n)
		for i := range st.SFCs {
			st.SFCs[i] = d.SFC()
		}
	}
	st.Live = decodeLive(d)
	st.Placed = decodeTenants(d)
	st.Layout = decodeLayout(d)
	return st
}

func decodeLive(d *binrec.Decoder) []liveEntry {
	n := d.Count(2)
	if n == 0 {
		return nil
	}
	live := make([]liveEntry, n)
	for i := range live {
		live[i].Tenant = d.Uint32()
		if k := d.Count(1); k > 0 {
			live[i].Stages = make([]int, k)
			for j := range live[i].Stages {
				live[i].Stages[j] = d.Index()
			}
		}
	}
	return live
}

func decodeLayout(d *binrec.Decoder) [][]bool {
	n := d.Count(1)
	if n == 0 {
		return nil
	}
	layout := make([][]bool, n)
	for i := range layout {
		layout[i] = d.Bools()
	}
	return layout
}

func decodeTenants(d *binrec.Decoder) []uint32 {
	n := d.Count(1)
	if n == 0 {
		return nil
	}
	ts := make([]uint32, n)
	for i := range ts {
		ts[i] = d.Uint32()
	}
	return ts
}

func decodeDepart(d *binrec.Decoder) departRec {
	return departRec{Tenant: d.Uint32(), Placed: d.Bool()}
}

// journal stages one record on the WAL without committing; a no-op for
// non-durable controllers.
func (c *Controller) journal(kind byte, payload any) error {
	if c.log == nil {
		return nil
	}
	rec, err := encodeRec(kind, payload)
	if err != nil {
		return err
	}
	return c.log.Append(rec)
}

// journalCommit makes everything staged so far (plus this record, when
// kind != 0) durable under one fsync. The "journal:staged" hook fires
// inside the group-commit window — records appended but not yet synced —
// so the fault harness can crash the controller with an intent that never
// became durable.
func (c *Controller) journalCommit(kind byte, payload any) error {
	if c.log == nil {
		return nil
	}
	if kind != 0 {
		if err := c.journal(kind, payload); err != nil {
			return err
		}
	}
	c.hook("journal:staged")
	if err := c.log.Commit(); err != nil {
		return err
	}
	c.recs++
	if txnBoundary(kind) {
		c.maybeSnapshot()
	}
	return nil
}

// txnBoundary reports whether a journal record kind ends a transaction.
// Snapshot rotation must only happen at these points: a rotation
// triggered by a BEGIN record would capture the pre-transaction state
// while the matching commit lands in the marked tail — on replay that
// commit dangles (its begin was folded into the snapshot) and the
// transaction's effects are silently lost.
func txnBoundary(kind byte) bool {
	switch kind {
	case recProvisionBegin, recPlaceBegin, recReconfigBegin, recDepartManyBegin:
		return false
	}
	return true
}

// maybeSnapshot rotates the journal onto a fresh snapshot once enough
// records accumulated. The state view is captured synchronously (a sort and
// references, no conversion) together with a wal.Mark, and the expensive
// part — encoding every SFC and writing the snapshot generation — runs in
// a background goroutine, off the mutation path.
// Records committed while the snapshot is being written are retained by
// the marked log and carried into the new generation, so nothing is lost.
// Best-effort: a failed rotation keeps journaling to the current (longer)
// generation.
func (c *Controller) maybeSnapshot() {
	every := c.opts.SnapshotEvery
	if every == 0 {
		every = 1024
	}
	if every < 0 || c.recs < every {
		return
	}
	if c.snapBusy.Load() {
		// The previous snapshot is still serializing; keep accumulating.
		return
	}
	if err := c.log.Mark(); err != nil {
		c.logf("core: journal snapshot mark failed: %v", err)
		return
	}
	st := c.captureState()
	c.recs = 0
	c.snapBusy.Store(true)
	c.snapWG.Add(1)
	go func() {
		defer c.snapWG.Done()
		defer c.snapBusy.Store(false)
		err := c.log.RotateTo(func(w io.Writer) error { return st.writeRec(w, recSnapshot) })
		if err != nil {
			c.logf("core: journal snapshot failed: %v", err)
		}
	}()
}

// snapshotNow synchronously writes the controller's full state as a new
// snapshot generation and resets the record counter.
func (c *Controller) snapshotNow() error {
	if c.log == nil {
		return nil
	}
	st := c.captureState()
	if err := c.log.RotateTo(func(w io.Writer) error { return st.writeRec(w, recSnapshot) }); err != nil {
		return err
	}
	c.recs = 0
	return nil
}

// captureState captures the controller's current durable state. It holds
// the registered SFCs and the live chains' stage lists by reference — the
// controller never mutates either once stored — so a capture costs a
// sort, and a snapshot encodes it off the mutation path.
func (c *Controller) captureState() *stateRec {
	st := &stateRec{Provisioned: c.updater != nil}
	info := c.lastInfo
	st.Info = &info
	tenants := sortedTenants(c.sfcs)
	st.SFCs = make([]*vswitch.SFC, len(tenants))
	for i, t := range tenants {
		st.SFCs[i] = c.sfcs[t]
		if c.updater == nil {
			continue
		}
		if _, stages, live := c.updater.Placement(int(t)); live {
			st.Live = append(st.Live, liveEntry{Tenant: t, Stages: stages})
		}
	}
	st.Placed = sortedKeys(c.placed)
	if c.updater != nil {
		st.Layout = c.updater.Layout()
	}
	return st
}
