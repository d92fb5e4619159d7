package netsim

import (
	"errors"
	"testing"
	"time"

	"repro/internal/simclock"
)

// simPair returns both ends of one simulated connection.
func simPair(t *testing.T, cfg Config) (cli, srv Conn) {
	t.Helper()
	n := New(simclock.New(), cfg, 1, nil)
	l, err := n.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	if cli, err = n.Dial("cli", "srv"); err != nil {
		t.Fatal(err)
	}
	if srv, err = l.Accept(time.Second); err != nil {
		t.Fatal(err)
	}
	return cli, srv
}

// A simulated message costs nothing in steady traffic: the wire copy
// lands in the receiver's spare buffer, the inbox reuses its array, and a
// receive that waits re-arms the conn's one timer.
func TestSimAllocations(t *testing.T) {
	cli, srv := simPair(t, Config{Latency: 20 * time.Microsecond})
	msg := make([]byte, 256)
	if n := testing.AllocsPerRun(200, func() {
		if err := cli.Send(msg); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Recv(0); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Send+Recv(0) allocates %v times per message, want 0", n)
	}

	// Messages of varying size, one or two in flight, settle into the
	// buffers of the largest: a small payload released never displaces a
	// larger spare.
	sizes := [][]byte{make([]byte, 4<<10), make([]byte, 64), make([]byte, 1<<10), make([]byte, 300)}
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		for range 2 {
			if err := cli.Send(sizes[i%len(sizes)]); err != nil {
				t.Fatal(err)
			}
			i++
		}
		for range 2 {
			if _, err := srv.Recv(0); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Errorf("two in flight of varying size allocate %v times per pair, want 0", n)
	}

	// A peer that sends one message a moment after each kick, so that the
	// receives below wait for it.
	kick, stop := make(chan struct{}), make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			case <-kick:
			}
			time.Sleep(50 * time.Microsecond)
			_ = cli.Send(msg)
		}
	}()
	for _, tc := range []struct {
		name string
		recv func() error
	}{
		{"Recv(0)", func() error { _, err := srv.Recv(0); return err }},
		{"Recv(timeout)", func() error { _, err := srv.Recv(time.Second); return err }},
		{"RecvAt(timeout)", func() error { _, _, _, err := RecvAt(srv, time.Second); return err }},
	} {
		if n := testing.AllocsPerRun(100, func() {
			kick <- struct{}{}
			if err := tc.recv(); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("a waiting %s allocates %v times per message, want 0", tc.name, n)
		}
	}
}

// A receive that times out leaves the conn usable, and the timer it
// armed can neither end a later receive early nor hide a message sent
// after the timeout.
func TestRecvTimeoutLeavesConnUsable(t *testing.T) {
	cli, srv := simPair(t, Config{})
	start := time.Now()
	if _, err := srv.Recv(20 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Recv on an idle conn = %v, want ErrTimeout", err)
	}
	if waited := time.Since(start); waited < 20*time.Millisecond {
		t.Fatalf("Recv timed out after %v, before its 20ms", waited)
	}
	if err := cli.Send([]byte("after")); err != nil {
		t.Fatal(err)
	}
	if got, err := srv.Recv(time.Second); err != nil || string(got) != "after" {
		t.Fatalf("Recv after a timeout = %q, %v", got, err)
	}

	// A receive answered well before its 40ms deadline, then one whose
	// message arrives after that deadline: the first one's timer must not
	// expire the second.
	go func() {
		time.Sleep(5 * time.Millisecond)
		_ = cli.Send([]byte("early"))
	}()
	if got, err := srv.Recv(40 * time.Millisecond); err != nil || string(got) != "early" {
		t.Fatalf("first Recv = %q, %v", got, err)
	}
	start = time.Now()
	go func() {
		time.Sleep(80 * time.Millisecond)
		_ = cli.Send([]byte("late"))
	}()
	if got, err := srv.Recv(2 * time.Second); err != nil || string(got) != "late" {
		t.Fatalf("second Recv = %q, %v after %v: a stale timer expired it", got, err, time.Since(start))
	}
}
