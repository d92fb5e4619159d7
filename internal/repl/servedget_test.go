package repl

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/alloctest"
	"repro/internal/server"
)

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// A GET a replica's server answers copies the value once, inside the
// read's snapshot, from the page image straight into the response frame:
// over the simulated conn the round trip's one allocation is the client's
// copy of the value it returns, and the server's session and the
// replica's read add none. Values in the leaf, on an overflow chain, of 0
// bytes and a missing key all read back whole.
func TestReplicaServedGetAllocatesOnlyTheClientsCopy(t *testing.T) {
	c := newTestCluster(t, "n0", "n1")
	pn := startPrimaryWithTable(t, c, "n0", 1, 1)
	defer pn.Stop(false)
	rn, err := c.StartReplica("n1", ReplicaOptions{Epoch: 1}, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rn.Stop()
	pn.Attach(c, "n1")
	vals := map[string][]byte{
		"small":    bytes.Repeat([]byte{'s'}, 64),
		"overflow": bytes.Repeat([]byte{'o'}, 4<<10),
		"empty":    {},
	}
	for k, v := range vals { // semi-sync: the replica has applied each once it returns
		if _, err := pn.Repl.Apply(context.Background(), "kv", []server.Op{{Key: []byte(k), Value: v}}); err != nil {
			t.Fatal(err)
		}
	}
	cli := server.NewClient(c.Dialer("cli"), []string{"n1"}, server.ClientOptions{ReadAnywhere: true})
	defer cli.Close()
	read := func(key string) {
		t.Helper()
		want, ok := vals[key]
		v, found, err := cli.Get("kv", []byte(key))
		if err != nil || found != ok || !bytes.Equal(v, want) {
			t.Fatalf("replica GET %s = %d B found=%v err=%v, want %d B found=%v", key, len(v), found, err, len(want), ok)
		}
	}
	for _, key := range []string{"overflow", "small", "empty", "missing", "overflow"} {
		read(key)
	}
	if raceEnabled {
		return // the race detector drops pooled read transactions at random
	}
	i := 0
	n, b := alloctest.PerRun(300, func() {
		i++
		read([]string{"small", "overflow"}[i%2])
	})
	if copies := float64(len(vals["small"])+len(vals["overflow"])) / 2; n > 1.05 || b > copies+64 {
		t.Fatalf("a replica's served GET allocates %.2f times and %.0f bytes, want 1 and %.0f (the client's copy)", n, b, copies)
	}
}
