package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/server"
)

// node is one run() in a goroutine, its standard output read line by
// line.
type node struct {
	t     *testing.T
	lines chan string
	stop  chan os.Signal
	exit  chan int
	errs  *bytes.Buffer // read only after exit delivered
}

func start(t *testing.T, args ...string) *node {
	t.Helper()
	pr, pw := io.Pipe()
	n := &node{
		t:     t,
		lines: make(chan string),
		stop:  make(chan os.Signal, 1), // as signal.Notify wants: the sender never blocks
		exit:  make(chan int, 1),
		errs:  &bytes.Buffer{},
	}
	go func() {
		n.exit <- run(args, pw, n.errs, n.stop)
		pw.Close()
	}()
	go func() {
		defer close(n.lines)
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			n.lines <- sc.Text()
		}
	}()
	t.Cleanup(n.shutdown)
	return n
}

// line returns the next line of output.
func (n *node) line() string {
	n.t.Helper()
	select {
	case l, ok := <-n.lines:
		if !ok {
			n.t.Fatalf("server exited early (code %d): %s", <-n.exit, n.errs)
		}
		return l
	case <-time.After(10 * time.Second):
		n.t.Fatal("no output from the server")
		return ""
	}
}

// after returns what follows marker in the next line.
func (n *node) after(marker string) string {
	n.t.Helper()
	l := n.line()
	_, rest, ok := strings.Cut(l, marker)
	if !ok {
		n.t.Fatalf("output %q has no %q", l, marker)
	}
	return rest
}

// shutdown delivers SIGTERM and waits for a clean exit; a second call is
// a no-op.
func (n *node) shutdown() {
	n.t.Helper()
	if n.stop == nil {
		return
	}
	n.stop <- syscall.SIGTERM
	n.stop = nil
	var out []string
	for l := range n.lines {
		out = append(out, l)
	}
	if code := <-n.exit; code != 0 {
		n.t.Errorf("exit code %d: %s", code, n.errs)
	}
	if len(out) == 0 || !strings.Contains(out[len(out)-1], "shutting down") {
		n.t.Errorf("output after SIGTERM = %q, want a shutting-down line last", out)
	}
}

func TestPrimaryServesOverLoopbackTCP(t *testing.T) {
	n := start(t, "-listen", "127.0.0.1:0", "primary")
	addr := n.after("serving on ")

	cli := server.NewClient(netsim.DialTCP, []string{addr}, server.ClientOptions{RecvTimeout: 5 * time.Second})
	defer cli.Close()
	big := bytes.Repeat([]byte("v"), 4<<10) // takes the btree's overflow path
	if _, err := cli.Put("kv", []byte("alpha"), big); err != nil {
		t.Fatal(err)
	}
	seq, err := cli.Batch("kv", []server.Op{
		{Key: []byte("beta"), Value: []byte("2")},
		{Key: []byte("gamma"), Value: []byte("3")},
		{Key: []byte("alpha-gone"), Delete: true},
	})
	if err != nil || seq == 0 {
		t.Fatalf("Batch = seq %d, %v", seq, err)
	}
	if v, found, err := cli.Get("kv", []byte("alpha")); err != nil || !found || !bytes.Equal(v, big) {
		t.Fatalf("Get alpha = %d B, found=%v, %v", len(v), found, err)
	}
	if v, found, err := cli.Get("kv", []byte("gamma")); err != nil || !found || string(v) != "3" {
		t.Fatalf("Get gamma = %q, found=%v, %v", v, found, err)
	}
	if _, found, err := cli.Get("kv", []byte("never")); err != nil || found {
		t.Fatalf("Get of a missing key: found=%v, %v", found, err)
	}
	if _, err := cli.Delete("kv", []byte("beta")); err != nil {
		t.Fatal(err)
	}
	st, err := cli.Status()
	if err != nil || st.Role != "primary" || st.Epoch != 1 {
		t.Fatalf("Status = %+v, %v", st, err)
	}

	n.shutdown()
	if _, err := netsim.DialTCP(addr); err == nil {
		t.Fatal("the listener is still bound after shutdown")
	}
}

// A primary shipping its log to a replica over the same framing: a write
// the primary acknowledges under -ack-replicas 1 is readable on the
// replica.
func TestReplicaFollowsPrimaryOverLoopbackTCP(t *testing.T) {
	r := start(t, "-listen", "127.0.0.1:0", "-repl-listen", "127.0.0.1:0", "replica")
	readAddr, shipAddr, ok := strings.Cut(r.after("serving reads on "), ", following on ")
	if !ok {
		t.Fatal("the replica's output does not name the address it follows on")
	}

	p := start(t, "-listen", "127.0.0.1:0", "-replicas", shipAddr, "-ack-replicas", "1", "primary")
	if l := p.line(); !strings.Contains(l, "shipping to replica "+shipAddr) {
		t.Fatalf("primary output %q", l)
	}
	primaryAddr := p.after("serving on ")

	writer := server.NewClient(netsim.DialTCP, []string{primaryAddr}, server.ClientOptions{RecvTimeout: 5 * time.Second})
	defer writer.Close()
	for i := 0; i < 20; i++ {
		if _, err := writer.Put("kv", []byte(fmt.Sprintf("user:%04d", i)), bytes.Repeat([]byte{byte(i)}, 300)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	reader := server.NewClient(netsim.DialTCP, []string{readAddr}, server.ClientOptions{ReadAnywhere: true, RecvTimeout: 5 * time.Second})
	defer reader.Close()
	v, found, err := reader.Get("kv", []byte("user:0019"))
	if err != nil || !found || !bytes.Equal(v, bytes.Repeat([]byte{19}, 300)) {
		t.Fatalf("replica Get = %d B, found=%v, %v", len(v), found, err)
	}
	if st, err := reader.Status(); err != nil || st.Role != "replica" {
		t.Fatalf("replica Status = %+v, %v", st, err)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{{}, {"primary", "extra"}, {"-no-such-flag", "primary"}, {"-listen", "127.0.0.1:0", "observer"}} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs, nil); code != 2 || !strings.Contains(errs.String(), "usage: nvwal-server") {
			t.Errorf("run(%q) = %d, stderr %q; want 2 and the usage text", args, code, errs.String())
		}
	}
	var out, errs bytes.Buffer
	if code := run([]string{"-listen", "127.0.0.1:0", "replica"}, &out, &errs, nil); code != 1 || !strings.Contains(errs.String(), "-repl-listen") {
		t.Errorf("replica without -repl-listen = %d, stderr %q; want 1", code, errs.String())
	}
}
