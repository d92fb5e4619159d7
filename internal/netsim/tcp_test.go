package netsim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// loopback returns the two ends of one real TCP connection.
func loopback(tb testing.TB) (dialed, accepted net.Conn) {
	tb.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	defer l.Close()
	dialed, err = net.Dial("tcp", l.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	accepted, err = l.Accept()
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		dialed.Close()
		accepted.Close()
	})
	return dialed, accepted
}

// countingConn counts the calls that cross into the kernel.
type countingConn struct {
	net.Conn
	reads, writes atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// frame is the wire form of one message, built independently of Send.
func frame(payload []byte) []byte {
	b := make([]byte, prefixLen+len(payload))
	binary.BigEndian.PutUint32(b, uint32(len(payload)))
	copy(b[prefixLen:], payload)
	return b
}

// pattern is n bytes that differ from any shifted copy of themselves, so
// a frame split at the wrong byte cannot compare equal.
func pattern(n int, salt byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7+i>>8) ^ salt
	}
	return b
}

func TestTCPRoundTripSizes(t *testing.T) {
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	cli, err := DialTCP(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	srv, err := l.Accept(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if cli.RemoteName() != srv.LocalName() || cli.LocalName() != srv.RemoteName() {
		t.Fatalf("names: %s->%s vs %s->%s", cli.LocalName(), cli.RemoteName(), srv.LocalName(), srv.RemoteName())
	}

	echoErr := make(chan error, 1)
	go func() {
		for {
			msg, err := srv.Recv(0)
			if err != nil {
				echoErr <- err
				return
			}
			if err := srv.Send(msg); err != nil {
				echoErr <- err
				return
			}
		}
	}()
	// Both sides of the boundary between a frame that waits whole in the
	// reader and one that is consumed as it arrives (connBuf-prefixLen),
	// and of the buffer size itself; small frames again after the large
	// ones.
	sizes := []int{0, 1, 4 << 10, connBuf - prefixLen, connBuf - prefixLen + 1, connBuf, connBuf + 1, 1 << 20, 1, 300}
	var inPlace *byte // where the reader's buffer returns a frame
	for i, n := range sizes {
		want := pattern(n, byte(i))
		if err := cli.Send(want); err != nil {
			t.Fatalf("Send(%d B): %v", n, err)
		}
		got, err := cli.Recv(5 * time.Second)
		if err != nil {
			t.Fatalf("Recv(%d B): %v", n, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%d B message came back as %d B, equal=false", n, len(got))
		}
		if cap(got) != len(got) {
			t.Errorf("%d B message returned with %d B of capacity: an append would reach past it", n, cap(got))
		}
		if n == 0 {
			continue
		}
		// Each reply is received alone, so the reader's buffer holds it
		// from the same offset every time: a frame that fits is returned
		// there, reusing the buffer, and a larger one comes in its own.
		fits := prefixLen+n <= connBuf
		if inPlace == nil && fits {
			inPlace = &got[0]
		}
		if fits && &got[0] != inPlace {
			t.Errorf("%d B message was not returned in the reader's buffer", n)
		}
		if !fits && &got[0] == inPlace {
			t.Errorf("%d B message, larger than the reader, was returned in it", n)
		}
	}
	cli.Close()
	if err := <-echoErr; !errors.Is(err, ErrClosed) {
		t.Fatalf("echo side ended with %v, want ErrClosed", err)
	}
}

// A burst written before the first Recv must come out message by
// message. A returned slice is valid only until the next Recv, so the
// messages are copied to be compared at the end.
func TestTCPBackToBackMessagesSplitCorrectly(t *testing.T) {
	raw, acc := loopback(t)
	rc := newTCPConn(acc)
	const n = 1000
	var burst []byte
	for i := 0; i < n; i++ {
		burst = append(burst, frame([]byte(fmt.Sprintf("message-%04d-%s", i, bytes.Repeat([]byte{'x'}, i%37))))...)
	}
	if _, err := raw.Write(burst); err != nil {
		t.Fatal(err)
	}
	got := make([][]byte, n)
	for i := range got {
		msg, err := rc.Recv(5 * time.Second)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		got[i] = bytes.Clone(msg)
	}
	for i, msg := range got {
		want := fmt.Sprintf("message-%04d-%s", i, bytes.Repeat([]byte{'x'}, i%37))
		if string(msg) != want {
			t.Fatalf("message %d = %q, want %q", i, msg, want)
		}
	}
}

func TestTCPOversizePrefixRejected(t *testing.T) {
	raw, acc := loopback(t)
	rc := newTCPConn(acc)
	var hdr [prefixLen]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrame+1)
	if _, err := raw.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Recv(5 * time.Second); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("Recv = %v, want ErrFrameTooLarge", err)
	}
	if rc.pend != nil {
		t.Fatalf("an oversize prefix allocated %d B", cap(rc.pend))
	}
	if err := rc.Send(make([]byte, maxFrame+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("Send(maxFrame+1) = %v, want ErrFrameTooLarge", err)
	}
}

func TestTCPPeerCloseMidFrame(t *testing.T) {
	for _, tc := range []struct {
		name        string
		claim, sent int
	}{
		{"inside the prefix", 100, -2},
		{"inside a buffered frame", 100, 40},
		{"inside a frame larger than the buffer", 3 * connBuf, connBuf + 17},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw, acc := loopback(t)
			rc := newTCPConn(acc)
			wire := frame(make([]byte, tc.claim))[:prefixLen+tc.sent]
			if _, err := raw.Write(wire); err != nil {
				t.Fatal(err)
			}
			raw.Close()
			if _, err := rc.Recv(5 * time.Second); !errors.Is(err, ErrClosed) {
				t.Fatalf("Recv = %v, want ErrClosed", err)
			}
		})
	}
}

// Regression: Recv's contract is that expiry leaves the conn usable. A
// deadline that fired after the prefix (or part of the payload) had been
// consumed used to lose those bytes, and the next Recv parsed payload
// bytes as a length.
func TestTCPRecvTimeoutMidFrameResumes(t *testing.T) {
	for _, tc := range []struct {
		name       string
		size, head int // payload size; wire bytes sent before the timeout
	}{
		{"prefix only", 300, prefixLen},
		{"half the prefix", 300, 2},
		{"part of a buffered payload", 300, prefixLen + 100},
		{"part of a payload larger than the buffer", 3*connBuf + 5, prefixLen + connBuf + 1000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw, acc := loopback(t)
			rc := newTCPConn(acc)
			first, second := pattern(tc.size, 1), pattern(50, 2)
			wire := append(frame(first), frame(second)...)
			if _, err := raw.Write(wire[:tc.head]); err != nil {
				t.Fatal(err)
			}
			if _, err := rc.Recv(20 * time.Millisecond); !errors.Is(err, ErrTimeout) {
				t.Fatalf("Recv with the frame cut at byte %d = %v, want ErrTimeout", tc.head, err)
			}
			// A second expiry with no new bytes must lose nothing either.
			if _, err := rc.Recv(5 * time.Millisecond); !errors.Is(err, ErrTimeout) {
				t.Fatalf("second Recv = %v, want ErrTimeout", err)
			}
			if _, err := raw.Write(wire[tc.head:]); err != nil {
				t.Fatal(err)
			}
			got, err := rc.Recv(0)
			if err != nil || !bytes.Equal(got, first) {
				t.Fatalf("resumed Recv = %d B, %v; want the whole %d B message", len(got), err, len(first))
			}
			got, err = rc.Recv(0)
			if err != nil || !bytes.Equal(got, second) {
				t.Fatalf("message after the resumed one = %d B, %v; want %d B intact", len(got), err, len(second))
			}
		})
	}
}

// The receive contract, on both transports: the slice Recv returns stays
// byte-identical while the peer sends more, up to the next Recv. Run it
// under -race, which also reports a send that writes into the buffer the
// receiver is still reading.
func TestRecvResultStableUntilNextRecv(t *testing.T) {
	for _, tc := range []struct {
		name string
		pair func(t *testing.T) (cli, srv Conn)
	}{
		{"sim", func(t *testing.T) (Conn, Conn) { return simPair(t, Config{}) }},
		{"tcp", func(t *testing.T) (Conn, Conn) {
			a, b := loopback(t)
			return newTCPConn(a), newTCPConn(b)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cli, srv := tc.pair(t)
			// Message k: its number, then a body whose length and bytes
			// follow from k.
			build := func(k int) []byte {
				msg := binary.BigEndian.AppendUint32(nil, uint32(k))
				return append(msg, pattern(200+k%300, byte(k))...)
			}
			// The peer sends n more messages, and returns once it has.
			more, sent := make(chan int), make(chan error)
			go func() {
				k := 0
				for n := range more {
					var err error
					for ; n > 0 && err == nil; n-- {
						err = cli.Send(build(k))
						k++
					}
					sent <- err
				}
			}()
			defer close(more)
			send := func(n int) {
				more <- n
				if err := <-sent; err != nil {
					t.Fatal(err)
				}
			}
			// Two messages stay queued behind the one held.
			send(2)
			for k := 0; k < 200; k++ {
				msg, err := srv.Recv(5 * time.Second)
				if err != nil {
					t.Fatalf("message %d: %v", k, err)
				}
				want := build(k)
				if !bytes.Equal(msg, want) {
					t.Fatalf("message %d arrived as %d B, % x…", k, len(msg), msg[:min(len(msg), 8)])
				}
				send(1)
				if !bytes.Equal(msg, want) {
					t.Fatalf("message %d changed while it was held", k)
				}
			}
		})
	}
}

// A prefix is a claim, not a delivery: what a connection holds follows
// the bytes that arrived.
func TestTCPHostilePrefixPinsNoMemory(t *testing.T) {
	raw, acc := loopback(t)
	rc := newTCPConn(acc)
	wire := frame(make([]byte, maxFrame))[:prefixLen+10]
	if _, err := raw.Write(wire); err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Recv(20 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Recv = %v, want ErrTimeout", err)
	}
	if got := cap(rc.pend); got > connBuf {
		t.Fatalf("a 16 MiB prefix followed by 10 bytes pinned %d B", got)
	}
}

func TestTCPConcurrentSendsArriveWhole(t *testing.T) {
	a, b := loopback(t)
	sc, rc := newTCPConn(a), newTCPConn(b)
	const senders, perSender = 2, 5000
	// Message = [sender][seq u32][body], the body a function of both and
	// of a length that crosses from one write's worth to several.
	build := func(s, i int) []byte {
		msg := make([]byte, 5, 5+(i*131)%3000)
		msg[0] = byte(s)
		binary.BigEndian.PutUint32(msg[1:], uint32(i))
		return append(msg, pattern(cap(msg)-5, byte(s*97+i))...)
	}
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if err := sc.Send(build(s, i)); err != nil {
					t.Errorf("sender %d message %d: %v", s, i, err)
					return
				}
			}
		}(s)
	}
	var next [senders]int
	for k := 0; k < senders*perSender; k++ {
		msg, err := rc.Recv(10 * time.Second)
		if err != nil {
			t.Fatalf("after %d messages: %v", k, err)
		}
		if len(msg) < 5 || int(msg[0]) >= senders {
			t.Fatalf("message %d is not one a sender built: % x…", k, msg[:min(len(msg), 8)])
		}
		s, i := int(msg[0]), int(binary.BigEndian.Uint32(msg[1:]))
		if i != next[s] {
			t.Fatalf("sender %d: got message %d, want %d", s, i, next[s])
		}
		next[s]++
		if !bytes.Equal(msg, build(s, i)) {
			t.Fatalf("sender %d message %d arrived torn", s, i)
		}
	}
	wg.Wait()
}

// Syscalls are counted, not inferred: one Write per Send, and no more
// than one Read per Recv once the bytes are there.
func TestTCPOneSyscallPerMessage(t *testing.T) {
	a, b := loopback(t)
	ca, cb := &countingConn{Conn: a}, &countingConn{Conn: b}
	cli, srv := newTCPConn(ca), newTCPConn(cb)

	const trips = 200
	done := make(chan error, 1)
	go func() {
		for i := 0; i < trips; i++ {
			msg, err := srv.Recv(0)
			if err == nil {
				err = srv.Send(msg)
			}
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	req := pattern(458, 3)
	for i := 0; i < trips; i++ {
		if err := cli.Send(req); err != nil {
			t.Fatal(err)
		}
		if _, err := cli.Recv(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*countingConn{"client": ca, "server": cb} {
		if w := c.writes.Load(); w != trips {
			t.Errorf("%s: %d Writes for %d Sends", name, w, trips)
		}
		if r := c.reads.Load(); r != trips {
			t.Errorf("%s: %d Reads for %d Recvs in a request-response exchange", name, r, trips)
		}
	}

	// Messages queued behind the one being received come with it.
	const burst = 100
	for i := 0; i < burst; i++ {
		if err := cli.Send(req); err != nil {
			t.Fatal(err)
		}
	}
	if w := ca.writes.Load(); w != trips+burst {
		t.Errorf("client: %d Writes for %d Sends", w, trips+burst)
	}
	before := cb.reads.Load()
	for i := 0; i < burst; i++ {
		if _, err := srv.Recv(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if r := cb.reads.Load() - before; r > burst {
		t.Errorf("server: %d Reads for %d Recvs of queued messages", r, burst)
	}
}

// sinkConn swallows writes and serves reads from an endless stream of
// one repeated frame: a conn with no kernel behind it, for counting
// allocations.
type sinkConn struct {
	net.Conn
	wire []byte
	off  int
}

func (c *sinkConn) Write(p []byte) (int, error) { return len(p), nil }

func (c *sinkConn) Read(p []byte) (int, error) {
	n := copy(p, c.wire[c.off:])
	c.off = (c.off + n) % len(c.wire)
	return n, nil
}

func TestTCPFramingAllocations(t *testing.T) {
	payload := pattern(1<<10, 4)
	c := newTCPConn(&sinkConn{wire: frame(payload)})
	if err := c.Send(payload); err != nil { // the first Send sizes the buffer
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() { _ = c.Send(payload) }); n != 0 {
		t.Errorf("Send allocates %v times per message, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { _, _ = c.Recv(0) }); n != 0 {
		t.Errorf("Recv allocates %v times per message, want 0 (the payload stays in the reader)", n)
	}

	// A large message grows the send buffer once and does not keep it.
	if err := c.Send(make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if got := cap(c.sbuf); got > connBuf {
		t.Errorf("send buffer still %d B after a 1 MiB message", got)
	}
}

// chunkConn feeds Recv a fixed byte stream in reads of at most chunk
// bytes, then EOF.
type chunkConn struct {
	net.Conn
	data  []byte
	chunk int
	fed   int
}

func (c *chunkConn) Read(p []byte) (int, error) {
	if c.fed == len(c.data) {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), c.chunk)], c.data[c.fed:])
	c.fed += n
	return n, nil
}

// FuzzTCPFraming feeds Recv an arbitrary byte stream. It must never
// panic, must return exactly the messages a reference parse of the
// stream finds, must end in the error that parse predicts, and must at no
// point hold more than its reader plus twice the payload bytes that have
// actually arrived (at least one buffer's worth).
func FuzzTCPFraming(f *testing.F) {
	f.Add(frame([]byte("hello")), uint16(3))
	f.Add(append(frame(nil), frame([]byte{1})...), uint16(0))
	f.Add([]byte{0, 0}, uint16(9))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3}, uint16(1))
	f.Add(frame(make([]byte, maxFrame))[:prefixLen+500], uint16(64))
	f.Add(append(frame(pattern(connBuf+100, 5)), frame([]byte("tail"))...), uint16(4000))
	f.Add(frame(pattern(3*connBuf, 6))[:2*connBuf], uint16(65535))
	f.Fuzz(func(t *testing.T, data []byte, chunk uint16) {
		nc := &chunkConn{data: data, chunk: int(chunk) + 1}
		c := newTCPConn(nc)
		rest := data
		for {
			msg, err := c.Recv(0)
			if held, bound := c.br.Size()+cap(c.pend), connBuf+max(connBuf, 2*nc.fed); held > bound {
				t.Fatalf("holding %d B after %d B arrived (bound %d)", held, nc.fed, bound)
			}
			var want []byte
			var wantErr error
			switch {
			case len(rest) < prefixLen:
				wantErr = ErrClosed
			case binary.BigEndian.Uint32(rest) > maxFrame:
				wantErr = ErrFrameTooLarge
			case len(rest)-prefixLen < int(binary.BigEndian.Uint32(rest)):
				wantErr = ErrClosed
			default:
				n := int(binary.BigEndian.Uint32(rest))
				want, rest = rest[prefixLen:prefixLen+n], rest[prefixLen+n:]
			}
			if !errors.Is(err, wantErr) {
				t.Fatalf("Recv error = %v, want %v (%d B of stream left)", err, wantErr, len(rest))
			}
			if err != nil {
				return
			}
			if !bytes.Equal(msg, want) {
				t.Fatalf("Recv = %d B, want the %d B frame of the stream", len(msg), len(want))
			}
		}
	})
}

// BenchmarkTCPRoundTrip is one request-response exchange over loopback:
// the client sends size bytes, an echo goroutine sends them back.
// syscalls/op counts Read and Write calls on both sockets.
func BenchmarkTCPRoundTrip(b *testing.B) {
	for _, size := range []int{64, 1 << 10, 4 << 10} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			x, y := loopback(b)
			cx, cy := &countingConn{Conn: x}, &countingConn{Conn: y}
			cli, srv := newTCPConn(cx), newTCPConn(cy)
			done := make(chan struct{})
			go func() {
				defer close(done)
				for {
					msg, err := srv.Recv(0)
					if err != nil {
						return
					}
					if srv.Send(msg) != nil {
						return
					}
				}
			}()
			req := pattern(size, 7)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cli.Send(req); err != nil {
					b.Fatal(err)
				}
				if _, err := cli.Recv(0); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			calls := cx.reads.Load() + cx.writes.Load() + cy.reads.Load() + cy.writes.Load()
			b.ReportMetric(float64(calls)/float64(b.N), "syscalls/op")
			cli.Close()
			<-done
		})
	}
}
