package core

import (
	"strings"
	"testing"
	"time"

	"hostsim/internal/check"
	"hostsim/internal/cpumodel"
	"hostsim/internal/skb"
	"hostsim/internal/units"
)

// checkedRig is a connected host pair with the invariant checker attached
// (Collect mode, so tests can census violations instead of recovering
// panics).
type checkedRig struct {
	*rig
	ck *check.Checker
}

func newCheckedRig(t *testing.T, opts Options) *checkedRig {
	t.Helper()
	r := newRig(t, opts)
	ck := check.New(r.eng, check.Options{Collect: true})
	AttachChecker(ck, r.c)
	return &checkedRig{rig: r, ck: ck}
}

// violationsFor filters the collected violations down to one rule.
func (r *checkedRig) violationsFor(rule string) []check.Violation {
	var out []check.Violation
	for _, v := range r.ck.Violations() {
		if v.Rule == rule {
			out = append(out, v)
		}
	}
	return out
}

func TestCheckerCleanOnIdlePair(t *testing.T) {
	r := newCheckedRig(t, AllOpts())
	r.run(2 * time.Millisecond)
	r.ck.Audit()
	if vs := r.ck.Violations(); len(vs) != 0 {
		t.Fatalf("idle connected pair violated invariants: %v", vs)
	}
}

func TestCheckerCatchesSKBLeak(t *testing.T) {
	r := newCheckedRig(t, AllOpts())
	// Take an skb from the shared pool and drop it on the floor: no queue,
	// no leak-by-design counter ever accounts for it.
	leaked := r.a.NIC.SKBPool().Get(&skb.Frame{Len: 1500})
	_ = leaked
	r.ck.Audit()
	vs := r.violationsFor("skb-pool-conservation")
	if len(vs) == 0 {
		t.Fatalf("injected skb leak not caught; violations: %v", r.ck.Violations())
	}
	if !strings.Contains(vs[0].Detail, "1 skbs leaked") {
		t.Errorf("diagnostic does not name the leak: %q", vs[0].Detail)
	}
}

func TestCheckerCatchesFrameLeak(t *testing.T) {
	r := newCheckedRig(t, AllOpts())
	f := r.a.NIC.FramePool().Get()
	f.Len = 9000
	r.ck.Audit()
	vs := r.violationsFor("frame-pool-conservation")
	if len(vs) == 0 {
		t.Fatalf("injected frame leak not caught; violations: %v", r.ck.Violations())
	}
	if !strings.Contains(vs[0].Detail, "1 frames leaked") {
		t.Errorf("diagnostic does not name the leak: %q", vs[0].Detail)
	}
}

func TestCheckerCatchesCycleDoubleCharge(t *testing.T) {
	r := newCheckedRig(t, AllOpts())
	// Slip cycles into the core accounting without a work item: the charge
	// log never sees them, so the ledger cannot reconcile.
	r.b.Sys.Core(0).SkewAccounting(cpumodel.DataCopy, units.Cycles(1234))
	r.ck.Audit()
	vs := r.violationsFor("cycle-conservation")
	if len(vs) == 0 {
		t.Fatalf("injected double-charge not caught; violations: %v", r.ck.Violations())
	}
	d := vs[0].Detail
	if !strings.Contains(d, "host b") || !strings.Contains(d, "data_copy") ||
		!strings.Contains(d, "drift +1234") {
		t.Errorf("diagnostic not pointed enough: %q", d)
	}
}

func TestCheckerCatchesSequenceDrift(t *testing.T) {
	r := newCheckedRig(t, AllOpts())
	epA, epB := OpenConn(r.a, 0, r.b, 0)
	_, idle := OpenConn(r.a, 1, r.b, 1)
	if got := transfer(t, r.rig, epA, epB, 256*units.KB, 5*time.Millisecond); got == 0 {
		t.Fatal("no bytes delivered")
	}
	r.ck.Audit()
	if vs := r.violationsFor("tcp-seqspace"); len(vs) != 0 {
		t.Fatalf("clean transfer violated tcp-seqspace: %v", vs)
	}
	// Point the sender at the idle connection's receiver: its rcvNxt lags
	// every byte the sender has had acknowledged.
	epA.peer = idle
	r.ck.Audit()
	vs := r.violationsFor("tcp-seqspace")
	if len(vs) == 0 {
		t.Fatalf("cross-host drift not caught; violations: %v", r.ck.Violations())
	}
	if !strings.Contains(vs[0].Detail, "cross-host sequence drift") {
		t.Errorf("diagnostic does not name the drift: %q", vs[0].Detail)
	}
}

func TestCheckerFailFastPanicsWithFailure(t *testing.T) {
	r := newRig(t, AllOpts())
	ck := check.New(r.eng, check.Options{}) // fail-fast
	AttachChecker(ck, r.c)
	r.a.NIC.SKBPool().Get(&skb.Frame{Len: 100})
	defer func() {
		f, ok := recover().(*check.Failure)
		if !ok {
			t.Fatal("Audit did not panic with *check.Failure")
		}
		if f.V.Rule != "skb-pool-conservation" {
			t.Errorf("failed rule %q, want skb-pool-conservation", f.V.Rule)
		}
	}()
	ck.Audit()
	t.Fatal("Audit returned despite the leak")
}

func TestLedgerResetMatchesAccountingReset(t *testing.T) {
	r := newCheckedRig(t, AllOpts())
	r.run(time.Millisecond)
	r.a.ResetMetrics()
	r.b.ResetMetrics()
	r.ck.Audit() // ledger and Breakdown both zeroed: still reconciled
	if vs := r.violationsFor("cycle-conservation"); len(vs) != 0 {
		t.Fatalf("cycle ledger drifted across ResetMetrics: %v", vs)
	}
}
