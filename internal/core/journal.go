package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"sfp/internal/p4rt"
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
// Each journal record is one kind byte followed by a JSON payload. The
// heavy subtrees — full SFC definitions — ride as p4rt.SFCSpec values,
// whose hand-rolled wire codec (PR 4) does the encode/decode work; the
// thin envelopes use encoding/json directly.

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
	Provisioned bool            `json:"p,omitempty"`
	SFCs        []*p4rt.SFCSpec `json:"sfcs,omitempty"`
	Live        []liveEntry     `json:"live,omitempty"`
	Placed      []uint32        `json:"placed,omitempty"`
	Layout      [][]bool        `json:"layout,omitempty"`
	Info        *ProvisionInfo  `json:"info,omitempty"`
}

// registerRec carries the SFCs an ArriveMany registered.
type registerRec struct {
	SFCs []*p4rt.SFCSpec `json:"sfcs"`
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

// encodeRec frames one journal record: kind byte + JSON payload (nil
// payload for bare commit/abort markers).
func encodeRec(kind byte, payload any) ([]byte, error) {
	b := []byte{kind}
	if payload == nil {
		return b, nil
	}
	if v, ok := payload.(*stateView); ok {
		var buf bytes.Buffer
		err := v.writeRec(&buf, kind)
		return buf.Bytes(), err
	}
	body, err := json.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("core: journal encode: %w", err)
	}
	return append(b, body...), nil
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
	case recProvisionBegin, recPlaceBegin, recDepartBegin,
		recReconfigBegin, recDepartManyBegin:
		return false
	}
	return true
}

// maybeSnapshot rotates the journal onto a fresh snapshot once enough
// records accumulated. The state view is captured synchronously (a sort and
// references, no conversion) together with a wal.Mark, and the expensive
// part — converting and JSON-encoding every SFC and writing the snapshot
// generation — runs in a background goroutine, off the mutation path.
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

// stateView is the controller's durable state at one instant, encoded as
// the equivalent stateRec. It holds the registered SFCs and the live
// chains' stage lists by reference — the controller never mutates either
// once stored — so a capture costs a sort, and a snapshot encodes one SFC
// at a time straight into the snapshot file, off the mutation path,
// without a copy of the fleet in memory.
type stateView struct {
	rec  stateRec       // every field but SFCs
	sfcs []*vswitch.SFC // ascending tenant order
}

// captureState captures the controller's current durable state.
func (c *Controller) captureState() *stateView {
	v := &stateView{rec: stateRec{Provisioned: c.updater != nil}}
	info := c.lastInfo
	v.rec.Info = &info
	tenants := sortedTenants(c.sfcs)
	v.sfcs = make([]*vswitch.SFC, len(tenants))
	for i, t := range tenants {
		v.sfcs[i] = c.sfcs[t]
		if c.updater == nil {
			continue
		}
		if _, stages, live := c.updater.Placement(int(t)); live {
			v.rec.Live = append(v.rec.Live, liveEntry{Tenant: t, Stages: stages})
		}
	}
	v.rec.Placed = sortedKeys(c.placed)
	if c.updater != nil {
		v.rec.Layout = c.updater.Layout()
	}
	return v
}

// writeRec writes the record — kind byte, then what json.Marshal produces
// for the equivalent stateRec — to w through a small buffer, encoding one
// SFC at a time.
func (v *stateView) writeRec(w io.Writer, kind byte) error {
	rest := v.rec
	rest.Provisioned = false
	tail, err := json.Marshal(&rest)
	if err != nil {
		return fmt.Errorf("core: journal encode: %w", err)
	}
	const chunk = 32 << 10
	b := make([]byte, 0, 2*chunk)
	b = append(b, kind, '{')
	sep := false
	if v.rec.Provisioned {
		b = append(b, `"p":true`...)
		sep = true
	}
	if len(v.sfcs) > 0 {
		if sep {
			b = append(b, ',')
		}
		b = append(b, `"sfcs":[`...)
		for i, s := range v.sfcs {
			if i > 0 {
				b = append(b, ',')
			}
			if b = p4rt.AppendSFC(b, s); len(b) >= chunk {
				if _, err := w.Write(b); err != nil {
					return err
				}
				b = b[:0]
			}
		}
		b = append(b, ']')
		sep = true
	}
	if inner := tail[1 : len(tail)-1]; len(inner) > 0 {
		if sep {
			b = append(b, ',')
		}
		b = append(b, inner...)
	}
	_, err = w.Write(append(b, '}'))
	return err
}
