package repl

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/metrics"
	"repro/internal/server"
)

// TestRoundsMidShippingKeepReplicaExact: the primary ships
// asynchronously, so its link's export cursor often stands below the
// watermark of a round forced while a batch is in flight, and its writers
// copy pages into whatever the rounds release (DESIGN.md §15). No batch
// may read an image recycled under it: the replica never diverges and
// ends holding exactly what the primary committed.
func TestRoundsMidShippingKeepReplicaExact(t *testing.T) {
	c := newTestCluster(t, "n0", "n1")
	pn := startPrimaryWithTable(t, c, "n0", 1, 0)
	defer pn.Stop(false)
	rn, err := c.StartReplica("n1", ReplicaOptions{Epoch: 1}, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rn.Stop()
	pn.Attach(c, "n1")
	cli := server.NewClient(c.Dialer("cli"), []string{"n0"}, server.ClientOptions{})
	defer cli.Close()

	stop, done := make(chan struct{}), make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if err := pn.DB.Checkpoint(); err != nil && !errors.Is(err, db.ErrBusySnapshot) {
				done <- err
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	model := map[string]string{}
	for i := 0; i < 1500; i++ {
		k, v := fmt.Sprintf("k%03d", i%120), fmt.Sprintf("v%d-%s", i, strings.Repeat("x", i%300))
		if _, err := cli.Put("kv", []byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		model[k] = v
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if rounds := pn.Node.M.Count(metrics.Checkpoints); rounds < 10 {
		t.Fatalf("only %d primary rounds ran while shipping", rounds)
	}
	if !rn.WaitCaughtUp(pn.Repl.Status().Mark, 5*time.Second) {
		t.Fatalf("replica stuck at %d, primary mark %d", rn.R.Applied(), pn.Repl.Status().Mark)
	}
	if n := rn.Node.M.Count(metrics.ReplDivergences); n != 0 {
		t.Fatalf("%d divergences", n)
	}
	for k, v := range model {
		mustGet(t, rn.R, k, v)
	}
}
