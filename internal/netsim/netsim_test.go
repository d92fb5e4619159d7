package netsim

import (
	"errors"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/simclock"
)

func TestRoundTripChargesLatency(t *testing.T) {
	clock := simclock.New()
	n := New(clock, Config{Latency: 100 * time.Microsecond}, 1, nil)
	l, err := n.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := n.Dial("cli", "srv")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := l.Accept(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Send([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	got, err := srv.Recv(time.Second)
	if err != nil || string(got) != "ping" {
		t.Fatalf("Recv = %q, %v", got, err)
	}
	if now := clock.Now(); now < 100*time.Microsecond {
		t.Fatalf("delivery did not charge wire latency: clock at %v", now)
	}
	if err := srv.Send([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	if got, err := cli.Recv(time.Second); err != nil || string(got) != "pong" {
		t.Fatalf("reply = %q, %v", got, err)
	}
	if cli.RemoteName() != "srv" || srv.RemoteName() != "cli" {
		t.Fatalf("names: %s<->%s", cli.RemoteName(), srv.RemoteName())
	}
}

func TestPerNodeLanesAdvanceIndependently(t *testing.T) {
	parent := simclock.New()
	n := New(parent, Config{Latency: time.Millisecond}, 1, nil)
	laneA, laneB := parent.NewLane(), parent.NewLane()
	n.Register("a", laneA)
	n.Register("b", laneB)
	l, _ := n.Listen("b")
	ca, _ := n.Dial("a", "b")
	cb, _ := l.Accept(time.Second)
	if err := ca.Send([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := cb.Recv(time.Second); err != nil {
		t.Fatal(err)
	}
	if laneB.Now() < time.Millisecond {
		t.Fatalf("receiver lane did not advance: %v", laneB.Now())
	}
}

func TestDropAndTimeout(t *testing.T) {
	clock := simclock.New()
	n := New(clock, Config{DropRate: 1}, 1, nil)
	l, _ := n.Listen("srv")
	cli, _ := n.Dial("cli", "srv")
	srv, _ := l.Accept(time.Second)
	if err := cli.Send([]byte("lost")); err != nil {
		t.Fatalf("drops must be silent: %v", err)
	}
	if _, err := srv.Recv(20 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	// The conn survives a timeout.
	n.SetLink("cli", "srv", Config{})
	if err := cli.Send([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	if got, err := srv.Recv(time.Second); err != nil || string(got) != "ok" {
		t.Fatalf("after heal: %q, %v", got, err)
	}
}

func TestCutKillsBothEnds(t *testing.T) {
	clock := simclock.New()
	n := New(clock, Config{CutRate: 1}, 1, nil)
	l, _ := n.Listen("srv")
	cli, _ := n.Dial("cli", "srv")
	srv, _ := l.Accept(time.Second)
	if err := cli.Send([]byte("doomed")); !errors.Is(err, ErrClosed) {
		t.Fatalf("cut send = %v, want ErrClosed", err)
	}
	if _, err := srv.Recv(time.Second); !errors.Is(err, ErrClosed) {
		t.Fatalf("peer recv after cut = %v, want ErrClosed", err)
	}
	if err := srv.Send([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("peer send after cut = %v, want ErrClosed", err)
	}
}

func TestPartitionAndIsolateBlackhole(t *testing.T) {
	clock := simclock.New()
	m := &metrics.Counters{}
	n := New(clock, Config{}, 1, m)
	l, _ := n.Listen("srv")
	cli, _ := n.Dial("cli", "srv")
	srv, _ := l.Accept(time.Second)

	n.Partition("cli", "srv")
	if err := cli.Send([]byte("gone")); err != nil {
		t.Fatalf("partitioned send must black-hole silently: %v", err)
	}
	if _, err := srv.Recv(10 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("partitioned recv = %v", err)
	}
	n.Heal("cli", "srv")
	if err := cli.Send([]byte("back")); err != nil {
		t.Fatal(err)
	}
	if got, err := srv.Recv(time.Second); err != nil || string(got) != "back" {
		t.Fatalf("healed: %q %v", got, err)
	}

	n.Isolate("srv")
	if _, err := n.Dial("cli2", "srv"); !errors.Is(err, ErrNoPeer) {
		t.Fatalf("dial to isolated node = %v", err)
	}
	if err := cli.Send([]byte("dead")); err != nil {
		t.Fatalf("send toward isolated node must black-hole: %v", err)
	}
	n.Rejoin("srv")
	if m.Count(metrics.NetDropped) < 2 {
		t.Fatalf("drops not counted: %d", m.Count(metrics.NetDropped))
	}
}

func TestReorderSwapsQueuedMessages(t *testing.T) {
	clock := simclock.New()
	n := New(clock, Config{}, 42, nil)
	l, _ := n.Listen("srv")
	cli, _ := n.Dial("cli", "srv")
	srv, _ := l.Accept(time.Second)
	// First message queues normally; the second (ReorderRate=1) is
	// inserted before it.
	if err := cli.Send([]byte("first")); err != nil {
		t.Fatal(err)
	}
	n.SetLink("cli", "srv", Config{ReorderRate: 1})
	if err := cli.Send([]byte("second")); err != nil {
		t.Fatal(err)
	}
	// A received message is valid until the next receive: keep a copy.
	a, _ := srv.Recv(time.Second)
	first := string(a)
	b, _ := srv.Recv(time.Second)
	if first != "second" || string(b) != "first" {
		t.Fatalf("order: %q then %q", first, b)
	}
}

func TestListenerCloseUnblocksAccept(t *testing.T) {
	clock := simclock.New()
	n := New(clock, Config{}, 1, nil)
	l, _ := n.Listen("srv")
	done := make(chan error, 1)
	go func() {
		_, err := l.Accept(0)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	l.Close()
	if err := <-done; !errors.Is(err, ErrNetClosed) {
		t.Fatalf("accept after close = %v", err)
	}
	// The name is free again.
	if _, err := n.Listen("srv"); err != nil {
		t.Fatalf("relisten: %v", err)
	}
}

// plainConn hides everything but the Conn interface, as a decorator or
// the TCP binding would.
type plainConn struct{ Conn }

// TestSendAtStampsTheGivenTime: delivery is the caller's virtual send
// time plus the link latency, whatever the sender's lane read when the
// goroutine ran; a negative time and a conn without the method both mean
// "the lane, now".
func TestSendAtStampsTheGivenTime(t *testing.T) {
	parent := simclock.New()
	n := New(parent, Config{Latency: time.Millisecond}, 1, nil)
	laneA, laneB := parent.NewLane(), parent.NewLane()
	n.Register("a", laneA)
	n.Register("b", laneB)
	l, _ := n.Listen("b")
	ca, _ := n.Dial("a", "b")
	cb, _ := l.Accept(time.Second)

	laneA.Advance(80 * time.Millisecond) // the sender's node was busy with something else
	for _, tc := range []struct {
		name string
		send func() error
		want time.Duration
	}{
		{"at 5ms", func() error { return SendAt(ca, []byte("x"), 5*time.Millisecond) }, 6 * time.Millisecond},
		{"negative", func() error { return SendAt(ca, []byte("x"), -1) }, 81 * time.Millisecond},
		{"plain Send", func() error { return ca.Send([]byte("x")) }, 81 * time.Millisecond},
		{"no method", func() error { return SendAt(plainConn{ca}, []byte("x"), 5*time.Millisecond) }, 81 * time.Millisecond},
	} {
		if err := tc.send(); err != nil {
			t.Fatal(err)
		}
		_, at, ok, err := RecvAt(cb, time.Second)
		if err != nil || !ok || at != tc.want {
			t.Fatalf("%s: delivered at %v (virtual %v, err %v), want %v", tc.name, at, ok, err, tc.want)
		}
	}
	if laneB.Now() != 0 {
		t.Fatalf("RecvAt moved the receiver's lane to %v", laneB.Now())
	}
}
