// Real-socket binding: the same Conn/Listener interfaces over TCP,
// with 4-byte big-endian length-prefix framing, so cmd/nvwal-server
// serves actual clients with the exact protocol code the simulated
// network tortures. No fault injection here — real networks bring
// their own.
//
// One message costs one kernel crossing on each side: Send assembles
// prefix and payload in a per-connection buffer and hands them over in a
// single Write; Recv reads through a per-connection buffered reader, so
// a prefix, its payload and whatever is queued behind them arrive in one
// read. A frame that fits in that reader is returned where it lies, in
// the reader's buffer, which the next Recv reuses; only a larger frame
// gets a buffer of its own.
package netsim

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"time"
)

// maxFrame bounds one framed message (16 MiB) so a corrupt or
// malicious length prefix cannot allocate unbounded memory.
const maxFrame = 16 << 20

// prefixLen is the length prefix: 4 bytes, big-endian.
const prefixLen = 4

// connBuf is the size of a connection's buffered reader, and the most a
// connection keeps of its send buffer (or, simulated, of each spare
// receive buffer) between messages. A frame that
// fits in it is peeked, never consumed, until it is whole; a larger one
// is read into a destination that grows from this size as bytes arrive.
const connBuf = 64 << 10

// ErrFrameTooLarge rejects messages over maxFrame.
var ErrFrameTooLarge = errors.New("netsim: framed message exceeds 16 MiB")

// ListenTCP binds a real TCP listener at addr (host:port).
func ListenTCP(addr string) (Listener, error) {
	nl, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpListener{nl: nl}, nil
}

// DialTCP connects to a real TCP endpoint.
func DialTCP(addr string) (Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newTCPConn(nc), nil
}

type tcpListener struct{ nl net.Listener }

func (l *tcpListener) Addr() string { return l.nl.Addr().String() }
func (l *tcpListener) Close() error { return l.nl.Close() }

func (l *tcpListener) Accept(timeout time.Duration) (Conn, error) {
	if timeout > 0 {
		type deadliner interface{ SetDeadline(time.Time) error }
		if d, ok := l.nl.(deadliner); ok {
			_ = d.SetDeadline(time.Now().Add(timeout))
			defer func() { _ = d.SetDeadline(time.Time{}) }()
		}
	}
	nc, err := l.nl.Accept()
	if err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			return nil, ErrTimeout
		}
		if errors.Is(err, net.ErrClosed) {
			return nil, ErrNetClosed
		}
		return nil, err
	}
	return newTCPConn(nc), nil
}

// tcpConn frames messages over one socket. Send is safe for concurrent
// callers (frames never interleave); Recv has one caller at a time, like
// every Conn.
type tcpConn struct {
	nc net.Conn

	sendMu sync.Mutex
	sbuf   []byte // the frame being sent; reused, kept at most connBuf large

	br *bufio.Reader
	// A frame larger than the reader's buffer cannot wait in it, so it is
	// consumed as it arrives: pendLen is its payload length (0 = no such
	// frame in progress) and pend the part received so far. Both outlive a
	// timed-out Recv, which is what makes the next one resume the frame.
	pend    []byte
	pendLen int
}

func newTCPConn(nc net.Conn) *tcpConn {
	return &tcpConn{nc: nc, br: bufio.NewReaderSize(nc, connBuf)}
}

func (c *tcpConn) LocalName() string  { return c.nc.LocalAddr().String() }
func (c *tcpConn) RemoteName() string { return c.nc.RemoteAddr().String() }
func (c *tcpConn) Close() error       { return c.nc.Close() }

func (c *tcpConn) Send(msg []byte) error {
	if len(msg) > maxFrame {
		return ErrFrameTooLarge
	}
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	b := binary.BigEndian.AppendUint32(c.sbuf[:0], uint32(len(msg)))
	b = append(b, msg...)
	_, err := c.nc.Write(b)
	if cap(b) > connBuf {
		b = nil // one large message must not stay pinned per connection
	}
	c.sbuf = b
	return mapNetErr(err)
}

func (c *tcpConn) Recv(timeout time.Duration) ([]byte, error) {
	if timeout > 0 {
		_ = c.nc.SetReadDeadline(time.Now().Add(timeout))
		defer func() { _ = c.nc.SetReadDeadline(time.Time{}) }()
	}
	if c.pendLen == 0 {
		hdr, err := c.br.Peek(prefixLen)
		if err != nil {
			return nil, mapNetErr(err)
		}
		claim := binary.BigEndian.Uint32(hdr)
		if claim > maxFrame {
			return nil, ErrFrameTooLarge
		}
		n := int(claim)
		if prefixLen+n <= connBuf {
			// Nothing is consumed until the frame is whole, so an expired
			// deadline loses no byte of it.
			frame, err := c.br.Peek(prefixLen + n)
			if err != nil {
				return nil, mapNetErr(err)
			}
			// The reader moves or overwrites these bytes only when it reads
			// again, which is the next Recv. Capped, so that an append by
			// the caller cannot write over the frames queued behind it.
			msg := frame[prefixLen : prefixLen+n : prefixLen+n]
			_, _ = c.br.Discard(prefixLen + n) // cannot fail: all of it is buffered
			return msg, nil
		}
		_, _ = c.br.Discard(prefixLen) // buffered, as above
		c.pendLen = n
		c.pend = make([]byte, 0, min(n, connBuf))
	}
	for len(c.pend) < c.pendLen {
		if len(c.pend) == cap(c.pend) {
			// Grow with the bytes received, not with the prefix's claim: a
			// peer pins at most twice what it has actually sent.
			grown := make([]byte, len(c.pend), min(c.pendLen, 2*cap(c.pend)))
			copy(grown, c.pend)
			c.pend = grown
		}
		// With its own buffer drained, the reader passes a read this large
		// straight through to the socket: the payload is not copied twice.
		k, err := c.br.Read(c.pend[len(c.pend):cap(c.pend)])
		c.pend = c.pend[:len(c.pend)+k]
		if err != nil {
			return nil, mapNetErr(err)
		}
	}
	msg := c.pend
	c.pend, c.pendLen = nil, 0
	return msg, nil
}

// mapNetErr folds socket errors onto the simulated network's error
// vocabulary so protocol code handles both identically.
func mapNetErr(err error) error {
	if err == nil {
		return nil
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		return ErrTimeout
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
		return ErrClosed
	}
	return err
}
