package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"sfp/internal/model"
	"sfp/internal/nf"
	"sfp/internal/pipeline"
	"sfp/internal/vswitch"
)

// tinySFC builds a one-NF chain with the given demand.
func tinySFC(tenant uint32, gbps float64) *vswitch.SFC {
	return &vswitch.SFC{
		Tenant:        tenant,
		BandwidthGbps: gbps,
		NFs: []*nf.Config{
			{Type: nf.Firewall, Rules: []nf.ConfigRule{{
				Matches: []pipeline.Match{pipeline.Wildcard(), pipeline.Wildcard(), pipeline.Wildcard(), pipeline.Wildcard()},
				Action:  "permit",
			}}},
		},
	}
}

// TestProvisionRollbackOnMidInstallFailure forces a step failure halfway
// through the install phase (the third tenant exceeds the real backplane
// because a rogue allocation ate capacity behind the planner's back) and
// checks that already-installed tenants are rolled back, the typed
// PartialFailureError surfaces, and the switch holds zero orphaned rules.
func TestProvisionRollbackOnMidInstallFailure(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	cfg.Stages = 4
	cfg.MaxPasses = 2
	cfg.CapacityGbps = 40
	c := New(Options{Pipeline: cfg, Consolidate: true, Recirc: 0, Algorithm: AlgoGreedy})

	// Rogue state the planner cannot see: 15 Gbps already committed.
	v := c.VSwitch()
	if _, err := v.InstallPhysicalNF(0, nf.Firewall, cfg.EntriesPerBlock); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Allocate(tinySFC(999, 15)); err != nil {
		t.Fatal(err)
	}
	baseEntries := v.Pipe.EntriesUsed()

	// The planner sees 40 Gbps for 3×10 Gbps and deploys all three; the
	// data plane runs out at the third install.
	_, err := c.Provision([]*vswitch.SFC{tinySFC(1, 10), tinySFC(2, 10), tinySFC(3, 10)})
	if err == nil {
		t.Fatal("provision succeeded despite oversubscribed backplane")
	}
	var pf *PartialFailureError
	if !errors.As(err, &pf) {
		t.Fatalf("error is %T (%v), want *PartialFailureError", err, err)
	}
	if pf.Op != "provision" {
		t.Errorf("op = %q, want provision", pf.Op)
	}
	if len(pf.RolledBackTenants) != 2 {
		t.Errorf("rolled back %v, want 2 tenants", pf.RolledBackTenants)
	}
	// The data plane is exactly as before the provision: only the rogue
	// tenant remains, and no partial rules are stranded.
	if v.Tenants() != 1 {
		t.Errorf("tenants after rollback = %d, want 1", v.Tenants())
	}
	if got := v.Pipe.EntriesUsed(); got != baseEntries {
		t.Errorf("entries after rollback = %d, want %d (no orphans)", got, baseEntries)
	}
	// The controller forgot the failed batch: the same tenants can be
	// provisioned again once capacity allows.
	if err := v.Deallocate(999); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Provision([]*vswitch.SFC{tinySFC(1, 10), tinySFC(2, 10)}); err != nil {
		t.Fatalf("re-provision after rollback: %v", err)
	}
	if v.Tenants() != 2 {
		t.Errorf("tenants after re-provision = %d, want 2", v.Tenants())
	}
}

// TestArriveRollbackForgetsTenant drives an arrival whose install fails
// and checks the controller erases it everywhere, so the tenant can
// arrive again later.
func TestArriveRollbackForgetsTenant(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	cfg.Stages = 4
	cfg.MaxPasses = 2
	cfg.CapacityGbps = 40
	c := New(Options{Pipeline: cfg, Consolidate: true, Recirc: 0, Algorithm: AlgoGreedy})
	if _, err := c.Provision([]*vswitch.SFC{tinySFC(1, 10)}); err != nil {
		t.Fatal(err)
	}
	entries := c.VSwitch().Pipe.EntriesUsed()

	// Rogue bandwidth the planner cannot see makes the arrival's install
	// fail at the data plane.
	if _, err := c.VSwitch().Allocate(tinySFC(999, 25)); err != nil {
		t.Fatal(err)
	}
	placed, err := c.Arrive(tinySFC(2, 10))
	if err == nil || placed {
		t.Fatalf("arrive succeeded (placed=%v err=%v), want rollback", placed, err)
	}
	var pf *PartialFailureError
	if !errors.As(err, &pf) {
		t.Fatalf("error is %T (%v), want *PartialFailureError", err, err)
	}
	if got := c.VSwitch().Pipe.EntriesUsed(); got != entries+1 { // +1: rogue tenant's rule
		t.Errorf("entries = %d, want %d (no orphans)", got, entries+1)
	}
	// Free the rogue capacity: the same tenant must be able to arrive.
	if err := c.VSwitch().Deallocate(999); err != nil {
		t.Fatal(err)
	}
	placed, err = c.Arrive(tinySFC(2, 10))
	if err != nil {
		t.Fatalf("re-arrive after rollback: %v", err)
	}
	if !placed {
		t.Error("tenant not placed after capacity freed")
	}
}

// TestSolverFallbackOnTimeLimit reproduces the acceptance criterion: an
// IP solve that hits its time limit with no incumbent no longer fails the
// Provision — the controller degrades straight to the greedy solver,
// records the chain taken, and the installed placement verifies.
func TestSolverFallbackOnTimeLimit(t *testing.T) {
	opts := testOptions(AlgoIP)
	opts.SolverTimeLimit = time.Nanosecond // expires before any incumbent
	opts.IPNoWarmStart = true              // cold solver: nothing to fall back on internally
	var logged []string
	opts.Logf = func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	}
	c := New(opts)
	m, err := c.Provision(smallBatch(7, 4))
	if err != nil {
		t.Fatalf("provision did not degrade: %v", err)
	}
	if m.Deployed == 0 {
		t.Fatal("fallback solver deployed nothing")
	}
	info := c.LastProvision()
	if !info.FellBack {
		t.Fatalf("no fallback recorded: %+v", info)
	}
	if info.Requested != AlgoIP || info.Used != AlgoGreedy {
		t.Errorf("requested %v used %v, want sfp-ip falling back to greedy", info.Requested, info.Used)
	}
	if len(info.Attempts) != 1 {
		t.Errorf("failed attempts %q, want exactly the sfp-ip one", info.Attempts)
	}
	if len(logged) == 0 {
		t.Error("fallback not logged")
	}
	// The installed placement passes model verification.
	in, a, _, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := model.Verify(in, a, true); err != nil {
		t.Errorf("fallback placement fails verification: %v", err)
	}
}

// TestNoFallbackOption checks the degradation chain can be disabled.
func TestNoFallbackOption(t *testing.T) {
	opts := testOptions(AlgoIP)
	opts.SolverTimeLimit = time.Nanosecond
	opts.IPNoWarmStart = true
	opts.NoFallback = true
	c := New(opts)
	if _, err := c.Provision(smallBatch(7, 4)); err == nil {
		t.Fatal("provision succeeded with fallback disabled and an expired time limit")
	}
}
