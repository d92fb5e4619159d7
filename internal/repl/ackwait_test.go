package repl

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/timedcond"
)

// ackWaitPrimary is a Primary with one link that has acked mark 10 and no
// sender running, for driving waitAcks without a cluster.
func ackWaitPrimary(timeout time.Duration) *Primary {
	p := &Primary{opts: PrimaryOptions{AckReplicas: 1, AckTimeout: timeout}}
	p.ackCond = timedcond.New(&p.mu)
	done := make(chan struct{})
	close(done)
	p.replicas = []*replicaLink{{p: p, applied: 10, quit: make(chan struct{}), done: done}}
	return p
}

// A write whose quorum has acked waits for nothing, and finding that out
// costs no timer and no deadline context.
func TestWaitAcksQuorumMetAllocatesNothing(t *testing.T) {
	p := ackWaitPrimary(time.Second)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for name, ctx := range map[string]context.Context{"background": context.Background(), "cancelable": ctx} {
		allocs := testing.AllocsPerRun(100, func() {
			if err := p.waitAcks(ctx, 10); err != nil {
				t.Fatal(err)
			}
		})
		// A context that can end costs its wake-up hook; a background one,
		// the server's when the client sets no deadline, costs nothing.
		if want := map[string]float64{"background": 0, "cancelable": 3}[name]; allocs > want {
			t.Errorf("an acked write with a %s context allocates %.0f objects to wait, want ≤ %.0f", name, allocs, want)
		}
	}
}

// The ack timeout, the caller's context and a closing primary each end an
// unacked wait with ErrIndeterminate, and an ack ends it with success.
func TestWaitAcksEndings(t *testing.T) {
	const timeout = 30 * time.Millisecond
	for _, tc := range []struct {
		name     string
		ackWait  time.Duration
		ctx      func() (context.Context, context.CancelFunc)
		during   func(p *Primary)
		wantErr  bool
		min, max time.Duration
	}{
		{name: "ack timeout", ackWait: timeout, wantErr: true, min: timeout, max: time.Second},
		{name: "context cancelled", ackWait: time.Minute, wantErr: true, max: time.Second,
			ctx: func() (context.Context, context.CancelFunc) {
				ctx, cancel := context.WithCancel(context.Background())
				time.AfterFunc(10*time.Millisecond, cancel)
				return ctx, cancel
			}},
		{name: "context deadline", ackWait: time.Minute, wantErr: true, min: timeout, max: time.Second,
			ctx: func() (context.Context, context.CancelFunc) {
				return context.WithTimeout(context.Background(), timeout)
			}},
		{name: "primary closed", ackWait: time.Minute, wantErr: true, max: time.Second,
			during: func(p *Primary) { p.Close() }},
		{name: "acked", ackWait: time.Minute, max: time.Second,
			during: func(p *Primary) { p.replicas[0].noteApplied(11, 0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := ackWaitPrimary(tc.ackWait)
			// The clock starts before the context's: a deadline counts
			// from the context's creation, not from the wait.
			start := time.Now()
			ctx, cancel := context.Background(), context.CancelFunc(func() {})
			if tc.ctx != nil {
				ctx, cancel = tc.ctx()
			}
			defer cancel()
			if tc.during != nil {
				time.AfterFunc(10*time.Millisecond, func() { tc.during(p) })
			}
			err := p.waitAcks(ctx, 11)
			took := time.Since(start)
			if tc.wantErr != (err != nil) || (err != nil && !errors.Is(err, server.ErrIndeterminate)) {
				t.Fatalf("waitAcks = %v", err)
			}
			if took < tc.min || took > tc.max {
				t.Fatalf("waitAcks returned after %v, want within [%v, %v]", took, tc.min, tc.max)
			}
		})
	}
}

// Acked writes leave no goroutine behind: not a timer's, not a context
// hook's, under either kind of context.
func TestAckedWritesLeaveNoGoroutines(t *testing.T) {
	c := newTestCluster(t, "n0", "n1")
	pn := startPrimaryWithTable(t, c, "n0", 1, 1)
	defer pn.Stop(false)
	rn, err := c.StartReplica("n1", ReplicaOptions{Epoch: 1}, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rn.Stop()
	pn.Attach(c, "n1")
	write := func(ctx context.Context, i int) {
		t.Helper()
		if _, err := pn.Repl.Apply(ctx, "kv", []server.Op{{Key: []byte(fmt.Sprintf("k%03d", i%200)), Value: []byte("v")}}); err != nil {
			t.Fatal(err)
		}
	}
	write(context.Background(), 0) // the replica seeds: every long-lived goroutine is up
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 1000; i++ {
		if i%2 == 0 {
			write(context.Background(), i)
		} else {
			write(ctx, i)
		}
	}
	if !waitFor(t, time.Second, func() bool { return runtime.NumGoroutine() <= before }) {
		t.Fatalf("%d goroutines after 1000 acked writes, %d before", runtime.NumGoroutine(), before)
	}
}
