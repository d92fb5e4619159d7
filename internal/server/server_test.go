package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/platform"
	"repro/internal/simclock"
)

// openDB builds a small NVWAL-journaled database with a kv table.
func openDB(t *testing.T) *db.DB {
	t.Helper()
	plat, err := platform.NewTuna()
	if err != nil {
		t.Fatal(err)
	}
	d, err := db.Open(plat, "srv.db", db.Options{Journal: db.JournalNVWAL, NVWAL: core.VariantUHLSDiff()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Close() })
	if err := d.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	return d
}

// startSim serves engine on a netsim endpoint and returns the network
// plus a dialer.
func startSim(t *testing.T, eng Engine, opts Options) (*netsim.Network, Dialer) {
	t.Helper()
	clock := simclock.New()
	n := netsim.New(clock, netsim.Config{Latency: 10 * time.Microsecond}, 7, nil)
	l, err := n.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	if opts.Clock == nil {
		opts.Clock = clock
	}
	s := New(eng, opts)
	go s.Serve(l)
	t.Cleanup(s.Close)
	dial := func(addr string) (netsim.Conn, error) {
		return n.Dial("cli", addr)
	}
	return n, dial
}

func TestServerRoundTripSim(t *testing.T) {
	d := openDB(t)
	eng := NewDBEngine(d, 0)
	_, dial := startSim(t, eng, Options{Pressure: d.Pressure})
	cli := NewClient(dial, []string{"srv"}, ClientOptions{})
	defer cli.Close()

	if _, err := cli.Put("kv", []byte("alpha"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	seq, err := cli.Batch("kv", []Op{
		{Key: []byte("beta"), Value: []byte("2")},
		{Key: []byte("gamma"), Value: []byte("3")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if seq == 0 {
		t.Fatal("batch commit returned seq 0")
	}
	v, found, err := cli.Get("kv", []byte("beta"))
	if err != nil || !found || string(v) != "2" {
		t.Fatalf("Get beta = %q found=%v err=%v", v, found, err)
	}
	if _, err := cli.Delete("kv", []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := cli.Get("kv", []byte("alpha")); found {
		t.Fatal("alpha survived delete")
	}
	st, err := cli.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Role != "primary" || st.Mark <= 0 || st.Applied != st.Mark {
		t.Fatalf("status = %+v", st)
	}
}

// Close can win the race against the goroutine running Serve; the
// listener handed to the late Serve must not stay bound.
func TestServeAfterCloseReleasesListener(t *testing.T) {
	n := netsim.New(simclock.New(), netsim.Config{}, 7, nil)
	l, err := n.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	s := New(NewDBEngine(openDB(t), 0), Options{})
	s.Close()
	s.Serve(l)
	if l2, err := n.Listen("srv"); err != nil {
		t.Fatalf("name still bound after Serve on a closed server: %v", err)
	} else {
		_ = l2.Close()
	}
}

func TestServerShedsAtWriteRate(t *testing.T) {
	d := openDB(t)
	eng := NewDBEngine(d, 0)
	m := &metrics.Counters{}
	// Virtually zero refill: burst of 2, then every write sheds (the
	// virtual clock advances far too little to mint new tokens).
	_, dial := startSim(t, eng, Options{WriteRate: 1e-6, WriteBurst: 2, Metrics: m})
	cli := NewClient(dial, []string{"srv"}, ClientOptions{RetryBudget: 2, BackoffMax: time.Millisecond})
	defer cli.Close()

	for i := 0; i < 2; i++ {
		if _, err := cli.Put("kv", []byte{byte(i)}, []byte("x")); err != nil {
			t.Fatalf("burst write %d: %v", i, err)
		}
	}
	_, err := cli.Put("kv", []byte("over"), []byte("x"))
	var oe *OpError
	if !errors.As(err, &oe) || oe.Indeterminate {
		t.Fatalf("rate-limited write = %v, want determinate OpError", err)
	}
	if m.Count(metrics.ServerShed) == 0 {
		t.Fatal("shed counter did not move")
	}
	// A shed write definitively did not apply.
	if _, found, _ := cli.Get("kv", []byte("over")); found {
		t.Fatal("shed write was applied")
	}
}

func TestServerFencesStaleEpoch(t *testing.T) {
	d := openDB(t)
	eng := NewDBEngine(d, 3)
	m := &metrics.Counters{}
	_, dial := startSim(t, eng, Options{Epoch: 3, Metrics: m})
	cli := NewClient(dial, []string{"srv"}, ClientOptions{})
	defer cli.Close()

	// The client starts at epoch 0; discovery via STATUS adopts epoch 3
	// and the write then lands.
	if _, err := cli.Put("kv", []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if cli.Epoch() != 3 {
		t.Fatalf("client did not adopt epoch: %d", cli.Epoch())
	}

	// A raw stale-epoch request is fenced.
	conn, err := dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(encodeRequest(nil, request{verb: verbPut, id: 99, epoch: 1, table: "kv", key: []byte("z"), value: []byte("z")})); err != nil {
		t.Fatal(err)
	}
	msg, err := conn.Recv(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := decodeResponse(msg, verbPut)
	if err != nil {
		t.Fatal(err)
	}
	if resp.status != stFenced || resp.epoch != 3 {
		t.Fatalf("stale write = status %d epoch %d, want fenced at 3", resp.status, resp.epoch)
	}
	if m.Count(metrics.ServerFenced) == 0 {
		t.Fatal("fence counter did not move")
	}
	if _, found, _ := d.Get("kv", []byte("z")); found {
		t.Fatal("fenced write was applied")
	}
}

// A field longer than its wire length can say used to wrap: a GET of a
// 65 541-byte key that begins with "hello" read the value stored under
// "hello". The client refuses such a request before sending anything,
// with a determinate error and no retry.
func TestClientRefusesFieldsTheWireCannotCarry(t *testing.T) {
	d := openDB(t)
	sm, cm := &metrics.Counters{}, &metrics.Counters{}
	_, dial := startSim(t, NewDBEngine(d, 0), Options{Metrics: sm})
	cli := NewClient(dial, []string{"srv"}, ClientOptions{Metrics: cm})
	defer cli.Close()
	if _, err := cli.Put("kv", []byte("hello"), []byte("world")); err != nil {
		t.Fatal(err)
	}
	served := sm.Count(metrics.ServerRequests)

	longKey := append([]byte("hello"), make([]byte, math.MaxUint16+1)...)
	longTable := strings.Repeat("t", math.MaxUint8+3)
	for name, op := range map[string]func() error{
		"GET of a long key": func() error {
			v, found, err := cli.Get("kv", longKey)
			if err == nil {
				return fmt.Errorf("succeeded: found=%v value %q", found, v)
			}
			return err
		},
		"PUT of a long key":    func() error { _, err := cli.Put("kv", longKey, []byte("v")); return err },
		"DELETE of a long key": func() error { _, err := cli.Delete("kv", longKey); return err },
		"GET in a long table": func() error {
			_, _, err := cli.Get(longTable, []byte("hello"))
			return err
		},
		"BATCH of too many ops": func() error {
			_, err := cli.Batch("kv", make([]Op, math.MaxUint16+1))
			return err
		},
		"BATCH with a long key": func() error {
			_, err := cli.Batch("kv", []Op{{Key: []byte("a")}, {Key: longKey, Delete: true}})
			return err
		},
	} {
		var oe *OpError
		if err := op(); !errors.As(err, &oe) || oe.Indeterminate {
			t.Errorf("%s: err = %v, want a determinate *OpError", name, err)
		}
	}
	if n := sm.Count(metrics.ServerRequests); n != served {
		t.Errorf("the server saw %d requests the client should have refused", n-served)
	}
	if n := cm.Count(metrics.ClientRetries); n != 0 {
		t.Errorf("the client retried a refused request %d times", n)
	}
	if v, found, err := cli.Get("kv", []byte("hello")); err != nil || !found || string(v) != "world" {
		t.Fatalf("Get hello after the refusals = %q, %v, %v", v, found, err)
	}
}

// Values a Get returns are the caller's: the client receives into a
// buffer the conn reuses, and later reads must not write into an earlier
// read's value.
func TestClientGetValuesOutliveLaterReads(t *testing.T) {
	d := openDB(t)
	_, dial := startSim(t, NewDBEngine(d, 0), Options{})
	cli := NewClient(dial, []string{"srv"}, ClientOptions{})
	defer cli.Close()
	want := map[string]string{}
	for i := 0; i < 4; i++ {
		k, v := fmt.Sprintf("k%d", i), strings.Repeat(string(rune('a'+i)), 40)
		if _, err := cli.Put("kv", []byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	got := map[string][]byte{}
	for round := 0; round < 2; round++ {
		for k := range want {
			v, found, err := cli.Get("kv", []byte(k))
			if err != nil || !found {
				t.Fatalf("Get %s = %v, %v", k, found, err)
			}
			got[k+fmt.Sprint(round)] = v
		}
	}
	for k, v := range got {
		if string(v) != want[k[:2]] {
			t.Errorf("value read for %s is now %q, want %q", k[:2], v, want[k[:2]])
		}
	}
}

func TestServerDedupResendsWithoutReexecuting(t *testing.T) {
	d := openDB(t)
	eng := NewDBEngine(d, 0)
	_, dial := startSim(t, eng, Options{})
	conn, err := dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	req := request{verb: verbPut, id: 42, table: "kv", key: []byte("dup"), value: []byte("v")}
	if err := conn.Send(encodeRequest(nil, req)); err != nil {
		t.Fatal(err)
	}
	first, err := conn.Recv(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Decoded now: the message is valid only until the next Recv.
	r1, _ := decodeResponse(first, verbPut)
	// Model a lost response: the client retries the same request id.
	if err := conn.Send(encodeRequest(nil, req)); err != nil {
		t.Fatal(err)
	}
	second, err := conn.Recv(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := decodeResponse(second, verbPut)
	if r1.status != stOK || r2.status != stOK {
		t.Fatalf("statuses %d, %d", r1.status, r2.status)
	}
	if r1.seq != r2.seq {
		t.Fatalf("duplicate was re-executed: seq %d then %d", r1.seq, r2.seq)
	}
}

func TestClientRetriesThroughDrops(t *testing.T) {
	d := openDB(t)
	eng := NewDBEngine(d, 0)
	n, dial := startSim(t, eng, Options{})
	m := &metrics.Counters{}
	cli := NewClient(dial, []string{"srv"}, ClientOptions{
		RecvTimeout: 30 * time.Millisecond,
		Metrics:     m,
	})
	defer cli.Close()
	// Establish the conn with a clean write, then make the link lossy
	// enough that some attempt times out.
	if _, err := cli.Put("kv", []byte("warm"), []byte("1")); err != nil {
		t.Fatal(err)
	}

	drops := 0
	for i := 0; i < 10; i++ {
		key := []byte(fmt.Sprintf("k%d", i))
		// Every other write, drop all traffic briefly so the first
		// attempt is lost and the retry (after the link heals) lands.
		if i%2 == 0 {
			n.SetLink("cli", "srv", netsim.Config{DropRate: 1})
			go func() {
				time.Sleep(40 * time.Millisecond)
				n.SetLink("cli", "srv", netsim.Config{})
			}()
			drops++
		}
		if _, err := cli.Put("kv", key, []byte("v")); err != nil {
			t.Fatalf("write %d through drops: %v", i, err)
		}
	}
	if drops > 0 && m.Count(metrics.ClientRetries) == 0 {
		t.Fatal("no retries recorded despite forced drops")
	}
	for i := 0; i < 10; i++ {
		key := []byte(fmt.Sprintf("k%d", i))
		if _, found, err := cli.Get("kv", key); err != nil || !found {
			t.Fatalf("acked write k%d missing: found=%v err=%v", i, found, err)
		}
	}
}

// TestClientDeadlineAbortsWriterSlotWait: a PUT carrying a 20 ms
// client deadline waits on a writer slot another transaction holds. The
// server's deadline context ends the wait in the engine: the client is
// told Busy, the server counts one deadline abort, and the key stays
// absent.
func TestClientDeadlineAbortsWriterSlotWait(t *testing.T) {
	plat, err := platform.NewTuna()
	if err != nil {
		t.Fatal(err)
	}
	d, err := db.Open(plat, "deadline.db", db.Options{Journal: db.JournalNVWAL, NVWAL: core.VariantUHLSDiff(), Concurrent: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Close() })
	if err := d.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	sm := &metrics.Counters{}
	_, dial := startSim(t, NewDBEngine(d, 0), Options{Metrics: sm})
	cli := NewClient(dial, []string{"srv"}, ClientOptions{Deadline: 20 * time.Millisecond, RetryBudget: 1})
	defer cli.Close()

	holder, err := d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	_, perr := cli.Put("kv", []byte("k"), []byte("v"))
	holder.Rollback()
	var oe *OpError
	if !errors.As(perr, &oe) || oe.Indeterminate || !strings.Contains(oe.Error(), "busy") {
		t.Fatalf("PUT behind a held writer slot = %v, want a determinate busy", perr)
	}
	if got := sm.Count(metrics.DeadlineAborts); got != 1 {
		t.Fatalf("%d deadline aborts, want 1", got)
	}
	if _, found, err := d.Get("kv", []byte("k")); err != nil || found {
		t.Fatalf("key after the aborted PUT: found=%v err=%v, want absent", found, err)
	}
}

func TestServerEngineBusySurfacesAdvice(t *testing.T) {
	eng := &stubEngine{err: &db.BusyError{
		Watermark: "begin-admission",
		Avail:     3,
		Hard:      8,
		Shard:     2,
		Backoff:   db.SuggestedBusyBackoff,
	}}
	_, dial := startSim(t, eng, Options{})
	conn, err := dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(encodeRequest(nil, request{verb: verbPut, id: 1, table: "kv", key: []byte("k"), value: []byte("v")})); err != nil {
		t.Fatal(err)
	}
	msg, err := conn.Recv(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := decodeResponse(msg, verbPut)
	if err != nil {
		t.Fatal(err)
	}
	if resp.status != stBusy {
		t.Fatalf("status = %d, want busy", resp.status)
	}
	adv := resp.busy
	if adv.Watermark != "begin-admission" || adv.Avail != 3 || adv.Hard != 8 || adv.Shard != 2 || adv.Backoff != db.SuggestedBusyBackoff {
		t.Fatalf("advice did not survive the wire: %+v", adv)
	}
}

// stubEngine fails every Apply with a fixed error.
type stubEngine struct{ err error }

func (s *stubEngine) Get(string, []byte) ([]byte, bool, error) { return nil, false, nil }
func (s *stubEngine) Apply(context.Context, string, []Op) (uint64, error) {
	return 0, s.err
}
func (s *stubEngine) Status() Status { return Status{Role: "primary"} }

// TestServerRoundTripTCP drives the same protocol over real sockets —
// the push-tier CI smoke for cmd/nvwal-server's transport.
func TestServerRoundTripTCP(t *testing.T) {
	d := openDB(t)
	eng := NewDBEngine(d, 0)
	l, err := netsim.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot bind loopback: %v", err)
	}
	s := New(eng, Options{Pressure: d.Pressure})
	go s.Serve(l)
	defer s.Close()

	cli := NewClient(netsim.DialTCP, []string{l.Addr()}, ClientOptions{RecvTimeout: 2 * time.Second})
	defer cli.Close()
	if _, err := cli.Put("kv", []byte("tcp"), []byte("works")); err != nil {
		t.Fatal(err)
	}
	v, found, err := cli.Get("kv", []byte("tcp"))
	if err != nil || !found || string(v) != "works" {
		t.Fatalf("Get over TCP = %q found=%v err=%v", v, found, err)
	}
	st, err := cli.Status()
	if err != nil || st.Role != "primary" {
		t.Fatalf("Status over TCP = %+v, %v", st, err)
	}
}

// recvErrConn is a real-transport-shaped Conn (no RecvAt method, so no
// virtual timing) whose reads always time out — the gray-failure shape
// hedging targets on TCP.
type recvErrConn struct{}

func (recvErrConn) Send([]byte) error                  { return nil }
func (recvErrConn) Recv(time.Duration) ([]byte, error) { return nil, netsim.ErrTimeout }
func (recvErrConn) Close() error                       { return nil }
func (recvErrConn) LocalName() string                  { return "cli" }
func (recvErrConn) RemoteName() string                 { return "srv" }

func TestHedgedGetNilClockRecvFailureFallsBack(t *testing.T) {
	// Regression: with a nil Clock (real-transport first-response-wins
	// hedging), a recv failure on the first replica must fall back to
	// the plain retry loop instead of dereferencing the nil clock.
	dial := func(string) (netsim.Conn, error) { return recvErrConn{}, nil }
	cli := NewClient(dial, []string{"a", "b"}, ClientOptions{
		RetryBudget:  2,
		RecvTimeout:  5 * time.Millisecond,
		ReadAnywhere: true,
		HedgeDelay:   time.Millisecond,
	})
	defer cli.Close()
	if _, _, err := cli.Get("kv", []byte("k")); err == nil {
		t.Fatal("expected an error from a cluster that never answers")
	}
}

// TestBreakerWindowIsOnTheClientClock: three failed dials open an
// endpoint's breaker, and it stays open until the client's lane passes
// breakerOpenFor — no real time needs to pass — when one half-open probe
// goes out; its success closes the breaker, so a later single failure
// does not re-open it.
func TestBreakerWindowIsOnTheClientClock(t *testing.T) {
	clock := simclock.New()
	lane := clock.NewLane()
	n := netsim.New(clock, netsim.Config{Latency: 10 * time.Microsecond}, 7, nil)
	n.Register("cli", lane)
	serve := func(name string) {
		l, err := n.Listen(name)
		if err != nil {
			t.Fatal(err)
		}
		s := New(NewDBEngine(openDB(t), 0), Options{Clock: clock})
		go s.Serve(l)
		t.Cleanup(s.Close)
	}
	serve("up")
	downDials := 0
	dial := func(addr string) (netsim.Conn, error) {
		if addr == "down" {
			downDials++
		}
		return n.Dial("cli", addr)
	}
	var m metrics.Counters
	cli := NewClient(dial, []string{"down", "up"}, ClientOptions{ReadAnywhere: true, Clock: lane, Metrics: &m})
	defer cli.Close()
	// get reads on a new connection: the client probes its endpoints again.
	get := func(wantDownDials int) {
		t.Helper()
		cli.Close()
		if _, _, err := cli.Get("kv", []byte("k")); err != nil {
			t.Fatal(err)
		}
		if downDials != wantDownDials {
			t.Fatalf("lane at %v: %d dials to the down endpoint, want %d", lane.Now(), downDials, wantDownDials)
		}
	}

	var opened time.Duration
	for i := 1; i <= breakerFailThreshold; i++ {
		opened = lane.Now() // the down endpoint is dialed first
		get(i)
	}
	if got := m.Count(metrics.BreakerOpen); got != 1 {
		t.Fatalf("breaker opened %d times, want 1", got)
	}
	lane.AdvanceTo(opened + breakerOpenFor)
	get(breakerFailThreshold) // open through the window's last instant
	serve("down")
	get(breakerFailThreshold + 2) // the half-open probe succeeds; the read connects there
	n.Isolate("down")
	get(breakerFailThreshold + 3) // closed: one failure does not re-open it
	get(breakerFailThreshold + 4)
	if got := m.Count(metrics.BreakerOpen); got != 1 {
		t.Fatalf("breaker opened %d times, want 1", got)
	}
}
