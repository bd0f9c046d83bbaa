package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"time"

	"repro/internal/exec"
	"repro/internal/server"
)

// wireServer is an in-process server behind the line protocol on a
// loopback port.
type wireServer struct {
	srv  *server.Server
	ln   net.Listener
	done chan error
}

func listen(srv *server.Server) (*wireServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ws := &wireServer{srv: srv, ln: ln, done: make(chan error, 1)}
	go func() { ws.done <- srv.ServeListener(ln) }()
	return ws, nil
}

// stop closes the listener and waits for the accept loop to return. Close
// client connections first: each ends its server-side session.
func (ws *wireServer) stop() error {
	ws.ln.Close()
	if err := <-ws.done; err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}

// wireRig is a server behind the protocol with its client connections.
type wireRig struct {
	srv   *server.Server
	ws    *wireServer
	conns []*wireClient
}

// startRig serves srv on a loopback port and opens n connections; on
// failure it shuts srv down.
func startRig(srv *server.Server, n int) (*wireRig, error) {
	r := &wireRig{srv: srv}
	var err error
	if r.ws, err = listen(srv); err != nil {
		srv.Shutdown()
		return nil, err
	}
	for i := 0; i < n; i++ {
		c, err := dial(r.ws)
		if err != nil {
			r.close()
			return nil, err
		}
		r.conns = append(r.conns, c)
	}
	return r, nil
}

// disconnect closes the connections and stops the listener.
func (r *wireRig) disconnect() error {
	for _, c := range r.conns {
		c.close()
	}
	r.conns = nil
	if r.ws == nil {
		return nil
	}
	err := r.ws.stop()
	r.ws = nil
	return err
}

// close disconnects and shuts the server down.
func (r *wireRig) close() error {
	err := r.disconnect()
	if e := r.srv.Shutdown(); err == nil {
		err = e
	}
	return err
}

// wireClient is one protocol connection.
type wireClient struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	rows []byte // the "row" lines of the last reply, without their prefix
}

func dial(ws *wireServer) (*wireClient, error) {
	conn, err := net.Dial("tcp", ws.ln.Addr().String())
	if err != nil {
		return nil, err
	}
	c := &wireClient{conn: conn, r: bufio.NewReaderSize(conn, 64<<10), w: bufio.NewWriter(conn)}
	greet, err := c.readLine()
	if err != nil {
		conn.Close()
		return nil, err
	}
	if !strings.HasPrefix(greet, "ok ") {
		conn.Close()
		return nil, fmt.Errorf("unexpected greeting %q", greet)
	}
	return c, nil
}

func (c *wireClient) close() error {
	c.w.WriteString("quit\n")
	c.w.Flush()
	return c.conn.Close()
}

func (c *wireClient) readLine() (string, error) {
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return "", err
	}
	return string(bytes.TrimRight(line, "\r\n")), nil
}

// do sends one command and reads its reply. Row lines are kept in c.rows;
// the terminal "ok ..." or "err ..." line is returned. An "err" reply is
// not a transport error: the caller decides whether it fails the op.
func (c *wireClient) do(cmd string) (string, error) {
	c.rows = c.rows[:0]
	c.w.WriteString(cmd)
	c.w.WriteByte('\n')
	if err := c.w.Flush(); err != nil {
		return "", err
	}
	for {
		line, err := c.r.ReadSlice('\n')
		if err != nil {
			return "", err
		}
		if bytes.HasPrefix(line, []byte("row ")) {
			c.rows = append(c.rows, line[4:]...)
			continue
		}
		if bytes.HasPrefix(line, []byte("| ")) {
			continue
		}
		return string(bytes.TrimRight(line, "\r\n")), nil
	}
}

// requestError is a failed request on a healthy connection: an "err"
// reply or a wrong result. Any other error from a call means the
// connection is unusable.
type requestError struct{ msg string }

func (e *requestError) Error() string { return e.msg }

func requestErrorf(format string, args ...any) error {
	return &requestError{fmt.Sprintf(format, args...)}
}

func connLost(err error) bool {
	var re *requestError
	return !errors.As(err, &re)
}

// call sends one command and returns its "ok" reply; an "err" reply comes
// back as a *requestError.
func (c *wireClient) call(cmd string) (string, error) {
	reply, err := c.do(cmd)
	if err != nil {
		return "", err
	}
	if !strings.HasPrefix(reply, "ok") {
		return "", requestErrorf("%s: %s", cmd, reply)
	}
	return reply, nil
}

// replyElapsed extracts the server-side execution time from an exec reply
// ("ok rows=N version=V repaired=B elapsed=D").
func replyElapsed(reply string) (time.Duration, bool) {
	i := strings.Index(reply, "elapsed=")
	if i < 0 {
		return 0, false
	}
	d, err := time.ParseDuration(reply[i+len("elapsed="):])
	return d, err == nil
}

// digest is an order-insensitive fingerprint of a result multiset. Values
// within a row are combined commutatively too: statements without a
// projection return their columns in plan order, which legitimately
// differs between plans.
type digest struct {
	rows int
	sum  uint64
}

func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

func (d *digest) addRow(vals []int64) {
	var h uint64
	for _, v := range vals {
		h += mix(uint64(v))
	}
	d.rows++
	d.sum += mix(h ^ 0x9e3779b97f4a7c15)
}

func digestRows(rows []exec.Row) digest {
	var d digest
	for _, r := range rows {
		d.addRow(r)
	}
	return d
}

// digestWire digests newline-separated rows of space-separated integers
// without allocating: the client parses thousands of values per reply.
func digestWire(b []byte) (digest, error) {
	var d digest
	var h uint64
	var v int64
	neg, inNum, inRow := false, false, false
	for _, c := range b {
		switch {
		case c >= '0' && c <= '9':
			v = v*10 + int64(c-'0')
			inNum, inRow = true, true
		case c == '-' && !inNum:
			neg = true
		case c == ' ' || c == '\n' || c == '\r':
			if inNum {
				if neg {
					v = -v
				}
				h += mix(uint64(v))
				v, neg, inNum = 0, false, false
			}
			if c == '\n' && inRow {
				d.rows++
				d.sum += mix(h ^ 0x9e3779b97f4a7c15)
				h, inRow = 0, false
			}
		default:
			return d, fmt.Errorf("bad byte %q in row", c)
		}
	}
	if inNum || inRow {
		return d, fmt.Errorf("unterminated row")
	}
	return d, nil
}
