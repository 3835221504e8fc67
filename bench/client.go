package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"time"
)

// client drives the server in a closed loop: one request at a time over
// one keep-alive connection.
type client struct {
	http *http.Client
	base string
	buf  bytes.Buffer // response body of the last request, reused
}

func newClient(base string) *client {
	return &client{
		base: base,
		http: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// reply is one timed request. The body aliases the client's buffer and
// is valid until the next request.
type reply struct {
	status      int
	body        []byte
	sent, first time.Time // request written → response headers read
	done        time.Time // last body byte read
}

// ms converts an interval of the reply to milliseconds.
func ms(from, to time.Time) float64 { return float64(to.Sub(from).Nanoseconds()) / 1e6 }

// do sends one request and reads the whole response. The interval is
// send → last body byte; nothing is checked or decoded inside it.
func (c *client) do(method, path string, body []byte) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return reply{}, err
	}
	var r reply
	r.sent = time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return reply{}, err
	}
	r.first = time.Now()
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	r.done = time.Now()
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	r.status = resp.StatusCode
	r.body = c.buf.Bytes()
	return r, nil
}

// send issues a scheduled op; statsOn adds ?stats=1 to a query, which is
// what the traced run's tracing consists of on the server's side.
func (c *client) send(o op, statsOn bool) (reply, error) {
	switch o.kind {
	case opQuery:
		path := "/query"
		if statsOn {
			path += "?stats=1"
		}
		return c.do(http.MethodPost, path, []byte(o.text))
	case opAppend:
		return c.do(http.MethodPut, "/tables/Sales/append", o.body)
	case opViewWide:
		return c.do(http.MethodGet, "/views/v_wide", nil)
	case opViewSmall:
		return c.do(http.MethodGet, "/views/v_small", nil)
	}
	return reply{}, fmt.Errorf("unknown op kind %d", o.kind)
}
