package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// conn is one keep-alive HTTP/1.1 connection driven without net/http's
// client Transport: requests go out as pre-rendered bytes and responses
// are parsed straight off a buffered reader, so the client spends little
// CPU beside the server it measures.
type conn struct {
	nc   net.Conn
	r    *bufio.Reader
	body []byte
}

func dial(addr string) (*conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{nc: nc, r: bufio.NewReaderSize(nc, 16<<10), body: make([]byte, 0, 4<<10)}, nil
}

func (c *conn) close() { c.nc.Close() }

// do sends one request and reads its response. The body aliases the
// connection's buffer until the next call.
func (c *conn) do(wire []byte) (status int, body []byte, err error) {
	if _, err := c.nc.Write(wire); err != nil {
		return 0, nil, err
	}
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	if status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	length, chunked, closing := -1, false, false
	for {
		line, err = c.r.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, value, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			continue
		}
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(value)); err != nil {
				return 0, nil, fmt.Errorf("malformed Content-Length %q", value)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		case bytes.EqualFold(name, []byte("Connection")):
			closing = bytes.EqualFold(value, []byte("close"))
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		err = c.readChunked()
	case length >= 0:
		err = c.readN(length)
	default:
		var rest []byte
		rest, err = io.ReadAll(c.r)
		c.body = append(c.body, rest...)
		closing = true
	}
	if err != nil {
		return 0, nil, err
	}
	if closing {
		err = errServerClosed
	}
	return status, c.body, err
}

// errServerClosed reports a response that ended its connection: the
// response is valid, the connection is not.
var errServerClosed = errors.New("server closed the connection")

func (c *conn) readN(n int) error {
	start := len(c.body)
	c.body = append(c.body, make([]byte, n)...)
	_, err := io.ReadFull(c.r, c.body[start:])
	return err
}

func (c *conn) readChunked() error {
	for {
		line, err := c.r.ReadSlice('\n')
		if err != nil {
			return err
		}
		size, _, _ := bytes.Cut(bytes.TrimRight(line, "\r\n"), []byte(";"))
		n, err := strconv.ParseInt(string(size), 16, 32)
		if err != nil {
			return fmt.Errorf("malformed chunk size %q", line)
		}
		if n == 0 {
			for { // trailers, then the blank line
				line, err := c.r.ReadSlice('\n')
				if err != nil {
					return err
				}
				if len(bytes.TrimRight(line, "\r\n")) == 0 {
					return nil
				}
			}
		}
		if err := c.readN(int(n)); err != nil {
			return err
		}
		if _, err := c.r.Discard(2); err != nil {
			return err
		}
	}
}

// send performs one request on a connection that may have to be
// (re)opened, checks the reply, and returns whether it was a success.
// Failures are counted in st; the first few are kept for the report.
func send(cp **conn, addr string, r *request, st *clientStats) bool {
	if *cp == nil {
		c, err := dial(addr)
		if err != nil {
			st.fail("transport", err)
			return false
		}
		*cp = c
	}
	status, body, err := (*cp).do(r.wire)
	if err != nil && !errors.Is(err, errServerClosed) {
		(*cp).close()
		*cp = nil
		st.fail("transport", err)
		return false
	}
	ok := true
	if cerr := r.check(status, body); cerr != nil {
		kind := "wrong"
		if status != 200 {
			kind = "status"
		}
		st.fail(kind, cerr)
		ok = false
	}
	if err != nil { // errServerClosed: the reply stands, the connection goes
		(*cp).close()
		*cp = nil
	}
	return ok
}

// clientStats counts one client's requests and keeps its samples.
type clientStats struct {
	attempted, transport, status, wrong int64
	firstErrs                           []string
	lat                                 []int64 // per success: latency, ns
}

func (st *clientStats) fail(kind string, err error) {
	switch kind {
	case "transport":
		st.transport++
	case "status":
		st.status++
	default:
		st.wrong++
	}
	if len(st.firstErrs) < 3 {
		st.firstErrs = append(st.firstErrs, kind+": "+err.Error())
	}
}

// loadResult merges the clients of one closed-loop window.
type loadResult struct {
	clientStats
	elapsed time.Duration
	// exhausted is set when a stream that may not repeat ran out before
	// the window closed; the live run then fails.
	exhausted bool
}

func (lr *loadResult) failed() int64 { return lr.transport + lr.status + lr.wrong }

// warmPass sends each warm request once, in order, on one connection.
func warmPass(addr string, in *inputs) error {
	var (
		c  *conn
		st clientStats
	)
	defer func() {
		if c != nil {
			c.close()
		}
	}()
	for _, i := range in.warm {
		if !send(&c, addr, &in.reqs[i], &st) {
			return fmt.Errorf("warm pass: %s", st.firstErrs[0])
		}
	}
	return nil
}

// closedLoop runs clients connections for the window: each sends its
// next request as soon as the previous reply is in, taking requests in
// stream order from a shared cursor. Every reply is checked. The client
// completing the hookAt-th successful request calls hook.
func closedLoop(addr string, in *inputs, clients int, window time.Duration, hookAt int64, hook func()) *loadResult {
	per := int(window.Seconds()*40000)/clients + 1024
	stats := make([]clientStats, clients)
	for i := range stats {
		stats[i].lat = make([]int64, 0, per)
	}
	var (
		cursor, succeeded atomic.Int64
		exhausted         atomic.Bool
		wg                sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(window)
	for k := range stats {
		st := &stats[k]
		wg.Add(1)
		go func() {
			defer wg.Done()
			var c *conn
			defer func() {
				if c != nil {
					c.close()
				}
			}()
			for {
				i := cursor.Add(1) - 1
				if i >= int64(len(in.stream)) {
					if !in.wrap {
						exhausted.Store(true)
						return
					}
					i %= int64(len(in.stream))
				}
				r := &in.reqs[in.stream[i]]
				t0 := time.Now()
				st.attempted++
				ok := send(&c, addr, r, st)
				t1 := time.Now()
				if ok {
					st.lat = append(st.lat, int64(t1.Sub(t0)))
					if succeeded.Add(1) == hookAt {
						hook()
					}
				}
				if t1.After(deadline) {
					return
				}
			}
		}()
	}
	wg.Wait()
	lr := &loadResult{elapsed: time.Since(start), exhausted: exhausted.Load()}
	for _, st := range stats {
		lr.attempted += st.attempted
		lr.transport += st.transport
		lr.status += st.status
		lr.wrong += st.wrong
		lr.firstErrs = append(lr.firstErrs, st.firstErrs...)
		lr.lat = append(lr.lat, st.lat...)
	}
	return lr
}
