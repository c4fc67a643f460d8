package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"
)

// serveProc is an arthas-serve child process: the request path users
// actually hit, measured from outside over its HTTP surface.
type serveProc struct {
	cmd  *exec.Cmd
	addr string
	// readyIn is how long the process took from exec to accepting its
	// listen address.
	readyIn time.Duration
}

// servers is every arthas-serve child not yet stopped, so that a fatal error
// or a signal can stop them too: the benchmark never exits ahead of a child.
var servers struct {
	sync.Mutex
	live map[*serveProc]bool
}

// stopServers stops every child still running.
func stopServers() {
	servers.Lock()
	live := servers.live
	servers.live = nil
	servers.Unlock()
	for s := range live {
		s.stop() //nolint:errcheck // already on the way out
	}
}

// startServe launches the built arthas-serve binary on a free port and
// waits until it reports its address.
func startServe(bin string, shards int, replicas bool) (*serveProc, error) {
	if bin == "" {
		return nil, errors.New("no arthas-serve binary: pass -serve-bin (bench/run.sh builds one)")
	}
	args := []string{"-shards", strconv.Itoa(shards), "-pool", strconv.Itoa(poolWords), "-addr", "127.0.0.1:0"}
	if replicas {
		args = append(args, "-replicas")
	}
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	// The server prints "arthas-serve: N shards on http://ADDR" once the
	// fleet is built and the listener is open.
	line, err := bufio.NewReader(stderr).ReadString('\n')
	s := &serveProc{cmd: cmd, readyIn: time.Since(t0)}
	servers.Lock()
	if servers.live == nil {
		servers.live = map[*serveProc]bool{}
	}
	servers.live[s] = true
	servers.Unlock()
	_, addr, ok := strings.Cut(strings.TrimSpace(line), "http://")
	if err != nil || !ok {
		s.stop() //nolint:errcheck // already failing
		return nil, fmt.Errorf("arthas-serve did not report its address: %q %v", line, err)
	}
	s.addr = addr
	go io.Copy(io.Discard, stderr) //nolint:errcheck // drains until the process exits; Wait closes the pipe
	return s, nil
}

// stop kills the server and waits for it to exit.
func (s *serveProc) stop() error {
	servers.Lock()
	delete(servers.live, s)
	servers.Unlock()
	if err := s.cmd.Process.Kill(); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	s.cmd.Wait() //nolint:errcheck // "signal: killed" is the expected outcome
	return nil
}

// httpConn is one keep-alive HTTP/1.1 connection speaking just enough of
// the protocol for /kv. It is deliberately not net/http's client: that
// client's own allocation and goroutine hand-offs would be a large,
// GC-sensitive share of a 150 µs request on a 2-core box, and the benchmark
// is of the server.
type httpConn struct {
	c   net.Conn
	r   *bufio.Reader
	req []byte
}

func (s *serveProc) dial() (*httpConn, error) {
	c, err := net.Dial("tcp", s.addr)
	if err != nil {
		return nil, err
	}
	return &httpConn{c: c, r: bufio.NewReader(c)}, nil
}

func (h *httpConn) close() { h.c.Close() }

// roundTrip sends one request and returns the status and body.
func (h *httpConn) roundTrip(method, path string, body []byte) (int, []byte, error) {
	b := h.req[:0]
	b = append(b, method...)
	b = append(b, ' ')
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: bench\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(body)), 10)
	b = append(b, "\r\n\r\n"...)
	b = append(b, body...)
	h.req = b
	if _, err := h.c.Write(b); err != nil {
		return 0, nil, err
	}
	status, length := 0, 0
	for first := true; ; first = false {
		line, err := h.r.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		if first { // "HTTP/1.1 200 OK"
			if len(line) < 12 {
				return 0, nil, fmt.Errorf("bad status line %q", line)
			}
			if status, err = strconv.Atoi(string(line[9:12])); err != nil {
				return 0, nil, fmt.Errorf("bad status line %q", line)
			}
		} else if v, ok := bytes.CutPrefix(line, []byte("Content-Length: ")); ok {
			if length, err = strconv.Atoi(string(v)); err != nil {
				return 0, nil, fmt.Errorf("bad content length %q", v)
			}
		}
	}
	out := make([]byte, length)
	if _, err := io.ReadFull(h.r, out); err != nil {
		return 0, nil, err
	}
	return status, out, nil
}

// do maps an op onto the /kv surface and its status codes back onto the
// KV's return values.
func (h *httpConn) do(o op) (int64, error) {
	var buf [40]byte
	path := strconv.AppendInt(append(buf[:0], "/kv/"...), o.key, 10)
	switch o.kind {
	case opGet:
		status, body, err := h.roundTrip("GET", string(path), nil)
		switch {
		case err != nil:
			return 0, err
		case status == 404:
			return absent, nil
		case status != 200:
			return 0, fmt.Errorf("GET %s: %d %s", path, status, body)
		}
		return strconv.ParseInt(string(bytes.TrimSpace(body)), 10, 64)
	case opPut:
		var vbuf [24]byte
		status, body, err := h.roundTrip("PUT", string(path), strconv.AppendInt(vbuf[:0], o.val, 10))
		if err == nil && status != 204 {
			err = fmt.Errorf("PUT %s: %d %s", path, status, body)
		}
		return 0, err
	default:
		status, body, err := h.roundTrip("DELETE", string(path), nil)
		switch {
		case err != nil:
			return 0, err
		case status == 404:
			return 0, nil
		case status != 204:
			return 0, fmt.Errorf("DELETE %s: %d %s", path, status, body)
		}
		return 1, nil
	}
}

// serverHeapBytes reads the server's live heap: HeapAlloc after the forced
// collection that /debug/pprof/heap?gc=1 runs, so the number is what the
// fleet retains and not what the collector has yet to free.
func (s *serveProc) serverHeapBytes() (int64, error) {
	c, err := s.dial()
	if err != nil {
		return 0, err
	}
	defer c.close()
	if _, err := fmt.Fprintf(c.c, "GET /debug/pprof/heap?gc=1&debug=1 HTTP/1.0\r\n\r\n"); err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(c.r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# HeapAlloc = "); ok {
			return strconv.ParseInt(v, 10, 64)
		}
	}
	return 0, fmt.Errorf("no HeapAlloc line in /debug/pprof/heap: %v", sc.Err())
}
