package main

import (
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/bench/workload"
)

func TestMain(m *testing.M) {
	if err := loadContract("../BENCHMARK.json"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestContract holds BENCHMARK.json to the limits its reader sets.
func TestContract(t *testing.T) {
	seen := map[string]bool{}
	once := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range contract.Workloads {
		once(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if _, ok := builders[w.Name]; !ok {
			t.Errorf("workload %s has no builder", w.Name)
		}
	}
	if len(contract.Workloads) != len(builders) {
		t.Errorf("%d workloads named, %d built", len(contract.Workloads), len(builders))
	}
	hasSetup := false
	for _, d := range contract.EndToEnd {
		once(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range contract.PerLayer {
		once(d.Name)
	}
	// A metric the contract names and nothing measures must fail the
	// repetition, and so must a measured one it does not name.
	defs := []metricDef{{Name: "a", Unit: "s"}, {Name: "b", Unit: "s"}}
	if _, err := emit(defs, map[string]float64{"a": 1}); err == nil {
		t.Error("a named metric that is not measured was accepted")
	}
	if _, err := emit(defs, map[string]float64{"a": 1, "b": 2, "c": 3}); err == nil {
		t.Error("a measured metric that is not named was accepted")
	}
	if mv, err := emit(defs, map[string]float64{"a": 1, "b": 2}); err != nil || mv["b"] != (metricValue{2, "s"}) {
		t.Errorf("emit: %v, %v", mv, err)
	}
}

// TestAllWorkloadsSmall runs every workload, untraced and traced, at a
// hundredth of the size, and checks that each repetition passes its
// oracle and emits exactly the metrics BENCHMARK.json names.
func TestAllWorkloadsSmall(t *testing.T) {
	m := contract
	start := time.Now()
	for _, w := range m.Workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w.Name, seed: 42, seconds: 0.3, scale: 0.01, trace: traced, traceDir: t.TempDir()}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s",
					w.Name, traced, res.Correct, res.Attempted, res.Failed, strings.Join(res.notes, "\n"))
			}
			want := map[string]string{}
			if traced {
				for _, d := range m.PerLayer {
					want[d.Name] = d.Unit
				}
			} else {
				for _, d := range m.EndToEnd {
					want[d.Name] = d.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d named", w.Name, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				mv, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s not emitted", w.Name, traced, name)
				case mv.Unit != unit:
					t.Errorf("%s: metric %s has unit %q, want %q", w.Name, name, mv.Unit, unit)
				case math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0):
					t.Errorf("%s: metric %s is %v", w.Name, name, mv.Value)
				case !traced && mv.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.Name, name, mv.Value)
				}
			}
			if traced {
				checkLayers(t, w.Name, res.Metrics)
				if _, err := os.Stat(cfg.traceDir + "/trace-" + w.Name + ".json"); err != nil {
					t.Errorf("%s: no trace file: %v", w.Name, err)
				}
			}
		}
	}
	if d := time.Since(start); d > 15*time.Second {
		t.Errorf("the small-scale pass took %v; it must stay under 15s", d)
	}
}

// checkLayers asserts that the layers a workload runs through report
// something, and that those it bypasses report nothing.
func checkLayers(t *testing.T, name string, mv map[string]metricValue) {
	t.Helper()
	runs := map[string][]string{
		"embed-write":       {"db.begin_us", "db.op_us", "db.commit_us", "pager.frames_per_write", "memsim.flushes_per_write", "core.recover_frames", "db.vcpu_share"},
		"embed-session-mix": {"db.op_us", "db.commit_us", "db.scan_us", "db.worker_scaling", "db.group_size", "core.page_version_ns"},
		"serve-tcp":         {"client.self_us", "netsim.transit_us", "netsim.send_us", "server.handle_us", "db.apply_us", "db.get_us", "netsim.bytes_per_op"},
		"serve-repl-sim":    {"repl.apply_us", "repl.ship_rtt_us", "repl.vship_rtt_us", "repl.replica_get_us", "repl.batches_per_write", "repl.ack_waits_per_write", "netsim.vtransit_us", "server.handle_us"},
	}
	bypasses := map[string][]string{
		"embed-write":       {"server.handle_us", "netsim.msgs_per_op", "repl.apply_us", "db.scan_us"},
		"embed-session-mix": {"server.handle_us", "netsim.msgs_per_op", "repl.apply_us"},
		"serve-tcp":         {"repl.apply_us", "repl.ship_rtt_us", "netsim.vtransit_us", "db.begin_us"},
		"serve-repl-sim":    {"db.apply_us", "db.begin_us", "db.scan_us"},
	}
	for _, n := range runs[name] {
		if mv[n].Value <= 0 {
			t.Errorf("%s: %s = %v, but the workload runs through that layer", name, n, mv[n].Value)
		}
	}
	for _, n := range bypasses[name] {
		if mv[n].Value != 0 {
			t.Errorf("%s: %s = %v, but the workload bypasses that layer", name, n, mv[n].Value)
		}
	}
	if name == "serve-tcp" && mv["netsim.msgs_per_op"].Value != 2 {
		t.Errorf("serve-tcp: %v messages per op, want one request and one reply", mv["netsim.msgs_per_op"].Value)
	}
}

// TestOracleCatchesWrongExpectations is the oracle's self-test: after
// a clean run the model verifies; each deliberately wrong expectation
// then has to be reported.
func TestOracleCatchesWrongExpectations(t *testing.T) {
	r, err := buildEmbedWrite(config{workload: "embed-write", seed: 5, scale: 0.005}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.d.Abandon()
	if st, _, _ := r.drive(phase{ops: 2000}); st.failed != 0 || st.writes == 0 {
		t.Fatalf("drive: %+v", st)
	}
	get := func(key []byte) ([]byte, bool, error) { return r.d.Get(table, key) }
	m := r.model
	m.verifyAll("clean", get)
	if len(m.violations) != 0 {
		t.Fatalf("clean run reported violations: %v", m.violations)
	}
	f := &m.fresh[0]
	if f.inserted == 0 || f.deleted == 0 || f.deleted == f.inserted {
		t.Fatalf("run too short to exercise inserts and deletes: %+v", *f)
	}
	var updated uint32
	for k, v := range m.ver {
		if v > 0 {
			updated = uint32(k)
		}
	}

	caught := func(what string, corrupt, restore func()) {
		t.Helper()
		corrupt()
		m.violations = nil
		m.verifyAll(what, get)
		if len(m.violations) == 0 {
			t.Errorf("%s: not caught", what)
		}
		restore()
		m.violations = nil
		m.verifyAll(what+" restored", get)
		if len(m.violations) != 0 {
			t.Errorf("%s: restoring the model did not clear the violation: %v", what, m.violations)
		}
	}
	caught("an acknowledged update the database never got",
		func() { m.ver[updated]++ }, func() { m.ver[updated]-- })
	caught("a stale value where an older version was acknowledged last",
		func() { m.ver[updated]-- }, func() { m.ver[updated]++ })
	caught("an acknowledged insert that is missing",
		func() { f.inserted++ }, func() { f.inserted-- })
	caught("an acknowledged delete that did not happen",
		func() { f.deleted++ }, func() { f.deleted-- })
	caught("a key the database holds although its delete was acknowledged",
		func() { f.deleted-- }, func() { f.deleted++ })
	caught("a value of the wrong size",
		func() { m.size[updated]++ }, func() { m.size[updated]-- })
	m.chain = make([]uint32, len(m.ver))
	copy(m.chain, m.ver)
	caught("a lost update: two read-modify-writes acknowledged, one version written",
		func() { m.chain[updated]++ }, func() { m.chain[updated]-- })

	// Point reads during the window.
	key := workload.AppendKey(nil, updated)
	val, found, err := r.d.Get(table, key)
	if err != nil || !found {
		t.Fatal(found, err)
	}
	ver := m.ver[updated]
	if !m.checkRead(updated, val, found, ver, ver, 0, false) {
		t.Errorf("a correct read was rejected: %v", m.violations)
	}
	for what, ok := range map[string]bool{
		"a read older than the model allows":   m.checkRead(updated, val, true, ver+1, ver+1, 0, false),
		"a read newer than any acknowledged":   m.checkRead(updated, val, true, 0, ver-1, 0, false),
		"a missing key":                        m.checkRead(updated, nil, false, ver, ver, 0, false),
		"another key's value":                  m.checkRead(updated+1, val, true, 0, ver, 0, true),
		"a value with a flipped bit":           m.checkRead(updated, append(append([]byte(nil), val[:len(val)-1]...), val[len(val)-1]^1), true, ver, ver, 0, false),
		"a commit sequence that went backward": func() bool { n := len(m.violations); m.ackSeq(0, m.lastSeq[0]); return len(m.violations) == n }(),
	} {
		if ok {
			t.Errorf("%s: not caught", what)
		}
	}
	if !m.checkRead(updated, val, true, ver+1, ver+1, 0, true) {
		t.Error("a lagging replica's older read must be allowed when stale reads are")
	}
}

func TestCompareVerdicts(t *testing.T) {
	s := func(min, med, max float64) *series { return &series{Median: med, Min: min, Max: max} }
	lower := metricDef{Name: "x", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "y", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		d    metricDef
		a, b *series
		want string
	}{
		{lower, s(99, 100, 101), s(104, 105, 106), "within"},
		{lower, s(99, 100, 101), s(114, 115, 116), "worse"},
		{lower, s(99, 100, 101), s(84, 85, 86), "better"},
		{higher, s(99, 100, 101), s(84, 85, 86), "worse"},
		{higher, s(99, 100, 101), s(114, 115, 116), "better"},
		{lower, s(90, 100, 105), s(114, 115, 116), "unresolved"},
		{lower, s(99, 100, 101), s(100, 115, 130), "unresolved"},
	} {
		if _, got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %v→%v: verdict %s, want %s", c.d.Better, *c.a, *c.b, got, c.want)
		}
	}
	for _, c := range []struct {
		a, b float64
		want string
	}{{0, 0, "within"}, {0, 0.0009, "within"}, {0, 0.002, "worse"}, {0.01, 0.002, "better"}} {
		if got := failVerdict(c.a, c.b); got != c.want {
			t.Errorf("fail_share %v→%v: verdict %s, want %s", c.a, c.b, got, c.want)
		}
	}
	if got := (&workloadReport{Attempted: []uint64{1000, 1000}, Failed: []uint64{0, 4}}).failShare(); got != 0.002 {
		t.Errorf("failShare = %v", got)
	}
	var sr series
	for _, v := range []float64{3, 1, 2} {
		sr.add(v)
	}
	if sr.Median != 2 || sr.Min != 1 || sr.Max != 3 {
		t.Errorf("series %+v", sr)
	}
}
