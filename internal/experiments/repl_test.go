package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestReplSteadyBoundaryRows runs the replication experiment small and
// checks the shapes the recorded run is read for: no seed in the steady
// window, a boundary that costs the writer about one round (each primary
// round's worth of writes above 20 ms is one round's flash time, not the
// primary's plus a replica's), acks that carry no flash time, and the
// failover headline.
func TestReplSteadyBoundaryRows(t *testing.T) {
	res, err := Repl(1000)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Steady
	if st.Seeds != 0 || st.PrimaryCheckpoints < 10 {
		t.Fatalf("steady window: %d seeds, %d primary checkpoints; want 0 and a run that crosses boundaries", st.Seeds, st.PrimaryCheckpoints)
	}
	// A round on this database is a few tens of ms of flash time; two in
	// sequence, the order this experiment exists to rule out, would read
	// about twice the first number below.
	if st.BoundaryMsPerRound < 20 || st.BoundaryMsPerRound > 65 {
		t.Errorf("%.1f virtual ms in writes above 20 ms per primary round, want about one round (20–65)", st.BoundaryMsPerRound)
	}
	if st.ShipAckMeanUs < 40 || st.ShipAckMeanUs > 2000 {
		t.Errorf("mean send-to-ack %.1f µs, want two 20 µs link latencies plus an apply and no flash time", st.ShipAckMeanUs)
	}
	if st.WriteP99Us > 5000 {
		t.Errorf("virtual write p99 %.1f µs: the cliff moved below p99", st.WriteP99Us)
	}
	if res.Failover.Survived != res.Failover.AckedWrites || res.Failover.AckedWrites != 400 {
		t.Errorf("failover: %d/%d acked writes survived", res.Failover.Survived, res.Failover.AckedWrites)
	}
	var out bytes.Buffer
	res.Print(&out)
	for _, want := range []string{"0 seeds in the window", "per primary boundary:", "400/400 acked writes survived"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
}
