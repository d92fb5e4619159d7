package torture

import (
	"errors"
	"testing"

	"repro/internal/server"
)

// TestReplOracleTable shows the outcome-based cluster oracle can catch
// what it claims to. Each case records client outcomes, then verifies
// against a fixed store.
func TestReplOracleTable(t *testing.T) {
	indeterminate := &server.OpError{Indeterminate: true, Err: errors.New("timed out after send")}
	refused := &server.OpError{Err: errors.New("not primary")}
	// write records one client put of k=v that ended in err, as the
	// workers do.
	write := func(o *replOracle, k, v string, err error) {
		recordOutcome(err, func() { o.ackedWrite(k, v) }, func() { o.indeterminateWrite(k, v) })
	}
	batch := func(o *replOracle, err error, kv ...string) {
		var keys, vals []string
		for i := 0; i+1 < len(kv); i += 2 {
			keys, vals = append(keys, kv[i]), append(vals, kv[i+1])
		}
		recordOutcome(err, func() { o.ackedBatch(keys, vals) }, func() { o.indeterminateBatch(keys, vals) })
	}

	cases := []struct {
		name     string
		record   func(o *replOracle)
		store    map[string]string
		wantKind string // "" = must pass
	}{
		{"acked write present", func(o *replOracle) { write(o, "k", "a", nil) }, mkState("k", "a"), ""},
		{"acked write lost", func(o *replOracle) { write(o, "k", "a", nil) }, mkState(), "durability"},
		{"acked write replaced by a value nobody wrote", func(o *replOracle) { write(o, "k", "a", nil) }, mkState("k", "z"), "durability"},
		{"acked delete still present", func(o *replOracle) {
			write(o, "k", "a", nil)
			write(o, "k", "", nil)
		}, mkState("k", "a"), "durability"},
		{"indeterminate write applied", func(o *replOracle) {
			write(o, "k", "a", nil)
			write(o, "k", "b", indeterminate)
		}, mkState("k", "b"), ""},
		{"indeterminate write not applied", func(o *replOracle) {
			write(o, "k", "a", nil)
			write(o, "k", "b", indeterminate)
		}, mkState("k", "a"), ""},
		{"value outside the legal set", func(o *replOracle) {
			write(o, "k", "a", nil)
			write(o, "k", "b", indeterminate)
		}, mkState("k", "c"), "resurrection"},
		{"never-acked key may stay absent", func(o *replOracle) { write(o, "k", "b", indeterminate) }, mkState(), ""},
		{"an ack after indeterminacy collapses the set", func(o *replOracle) {
			write(o, "k", "b", indeterminate)
			write(o, "k", "c", nil)
		}, mkState("k", "b"), "durability"},
		{"determinate client error widens nothing", func(o *replOracle) {
			write(o, "k", "a", nil)
			write(o, "k", "b", refused)
			write(o, "k", "c", errors.New("dial: no route"))
		}, mkState("k", "b"), "durability"},
		{"determinate client error, old value kept", func(o *replOracle) {
			write(o, "k", "a", nil)
			write(o, "k", "b", refused)
		}, mkState("k", "a"), ""},
		{"acked batch present", func(o *replOracle) { batch(o, nil, "k1", "a", "k2", "b") }, mkState("k1", "a", "k2", "b"), ""},
		{"acked batch half lost", func(o *replOracle) { batch(o, nil, "k1", "a", "k2", "b") }, mkState("k1", "a"), "durability"},
		{"indeterminate batch applied", func(o *replOracle) { batch(o, indeterminate, "k1", "a", "k2", "b") }, mkState("k1", "a", "k2", "b"), ""},
		{"indeterminate batch not applied", func(o *replOracle) { batch(o, indeterminate, "k1", "a", "k2", "b") }, mkState(), ""},
		{"indeterminate batch torn", func(o *replOracle) { batch(o, indeterminate, "k1", "a", "k2", "b") }, mkState("k1", "a"), "atomicity"},
		{"torn-looking batch with one key rewritten since is undecidable", func(o *replOracle) {
			batch(o, indeterminate, "k1", "a", "k2", "b")
			write(o, "k2", "z", nil)
		}, mkState("k1", "a", "k2", "z"), ""},
		{"refused batch widens nothing", func(o *replOracle) {
			write(o, "k1", "x", nil)
			batch(o, refused, "k1", "a", "k2", "b")
		}, mkState("k1", "a", "k2", "b"), "durability"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := newReplOracle()
			tc.record(o)
			vs := o.verify(func(key string) (string, bool, error) {
				v, ok := tc.store[key]
				return v, ok, nil
			})
			if tc.wantKind == "" {
				if len(vs) != 0 {
					t.Fatalf("want clean, got %v", vs)
				}
				return
			}
			if len(vs) == 0 || vs[0].Kind != tc.wantKind {
				t.Fatalf("want a leading %s violation, got %v", tc.wantKind, vs)
			}
		})
	}

	t.Run("a failed read is an error, not a verdict", func(t *testing.T) {
		o := newReplOracle()
		write(o, "k", "a", nil)
		vs := o.verify(func(string) (string, bool, error) { return "", false, errors.New("not serving") })
		if len(vs) != 1 || vs[0].Kind != "error" {
			t.Fatalf("want one error, got %v", vs)
		}
	})
}
