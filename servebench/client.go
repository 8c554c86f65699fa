package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// conn is one keep-alive HTTP/1.1 connection to the daemon. It writes the
// stream's prebuilt request bytes and parses the response on the calling
// goroutine: net/http's transport would add two goroutine handoffs and tens
// of microseconds of client CPU per request, which on a 2-CPU host is taken
// from the daemon being measured.
type conn struct {
	addr    string
	timeout time.Duration
	c       net.Conn
	br      *bufio.Reader
	body    []byte
}

func newConn(addr string, timeout time.Duration) *conn {
	return &conn{addr: addr, timeout: timeout}
}

// do sends one request and returns the status and body. The body is only
// valid until the next call. On any transport error the connection is
// dropped and the next call redials.
func (c *conn) do(wire []byte) (int, []byte, error) {
	if c.c == nil {
		nc, err := net.DialTimeout("tcp", c.addr, c.timeout)
		if err != nil {
			return 0, nil, err
		}
		c.c = nc
		c.br = bufio.NewReaderSize(nc, 16<<10)
	}
	status, body, keep, err := c.roundTrip(wire)
	if err != nil || !keep {
		c.close()
	}
	return status, body, err
}

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c, c.br = nil, nil
	}
}

func (c *conn) roundTrip(wire []byte) (status int, body []byte, keep bool, err error) {
	if err := c.c.SetDeadline(time.Now().Add(c.timeout)); err != nil {
		return 0, nil, false, err
	}
	if _, err := c.c.Write(wire); err != nil {
		return 0, nil, false, err
	}
	line, err := c.line()
	if err != nil {
		return 0, nil, false, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, false, fmt.Errorf("malformed status line %q", line)
	}
	status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, false, fmt.Errorf("malformed status line %q", line)
	}
	length, chunked, keep := -1, false, true
	for {
		h, err := c.line()
		if err != nil {
			return 0, nil, false, err
		}
		if len(h) == 0 {
			break
		}
		k, v, ok := bytes.Cut(h, []byte(":"))
		if !ok {
			return 0, nil, false, fmt.Errorf("malformed header %q", h)
		}
		v = bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(v)); err != nil {
				return 0, nil, false, fmt.Errorf("malformed Content-Length %q", v)
			}
		case bytes.EqualFold(k, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(v, []byte("chunked"))
		case bytes.EqualFold(k, []byte("Connection")):
			keep = !bytes.EqualFold(v, []byte("close"))
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		err = c.readChunked()
	case length >= 0:
		err = c.readN(length)
	default:
		return 0, nil, false, errors.New("response has neither Content-Length nor chunked body")
	}
	if err != nil {
		return 0, nil, false, err
	}
	return status, c.body, keep, nil
}

// line reads one CRLF-terminated line without the terminator.
func (c *conn) line() ([]byte, error) {
	l, err := c.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	return bytes.TrimRight(l, "\r\n"), nil
}

func (c *conn) readN(n int) error {
	start := len(c.body)
	c.body = append(c.body, make([]byte, n)...)
	_, err := io.ReadFull(c.br, c.body[start:])
	return err
}

func (c *conn) readChunked() error {
	for {
		l, err := c.line()
		if err != nil {
			return err
		}
		size, _, _ := bytes.Cut(l, []byte(";"))
		n, err := strconv.ParseInt(string(size), 16, 32)
		if err != nil {
			return fmt.Errorf("malformed chunk size %q", l)
		}
		if n == 0 {
			for { // trailers, then the blank line
				t, err := c.line()
				if err != nil {
					return err
				}
				if len(t) == 0 {
					return nil
				}
			}
		}
		if err := c.readN(int(n)); err != nil {
			return err
		}
		if _, err := c.line(); err != nil {
			return err
		}
	}
}
