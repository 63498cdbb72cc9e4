package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"fdiam/internal/serve"
)

// httpServer is an in-process fdiamd: serve.New's handler behind a real
// loopback listener, as cmd/fdiamd mounts it.
type httpServer struct {
	srv  *serve.Server
	hs   *http.Server
	base string
	done chan error
}

// startServer builds a server and returns once /healthz answers 200,
// together with the time that took (serve.New to the first 200).
func startServer(cfg serve.Config) (*httpServer, time.Duration, error) {
	t0 := time.Now()
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background()) // nothing was admitted; it returns at once
		return nil, 0, err
	}
	h := &httpServer{srv: srv, hs: &http.Server{Handler: srv}, base: "http://" + ln.Addr().String(),
		done: make(chan error, 1)}
	go func() { h.done <- h.hs.Serve(ln) }()
	c := newClient()
	defer c.CloseIdleConnections()
	for {
		resp, err := c.Get(h.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return h, time.Since(t0), nil
			}
		}
		if time.Since(t0) > 10*time.Second {
			h.stop()
			return nil, 0, fmt.Errorf("server not healthy after 10s (last error %v)", err)
		}
	}
}

// stop closes the listener, waits for in-flight handlers, drains the
// solver and waits for the serving goroutine to exit.
func (h *httpServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := h.hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: http shutdown:", err)
	}
	if err := h.srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: serve shutdown:", err)
	}
	if err := <-h.done; !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
	}
}

// newClient returns a client with one kept-alive connection, as a caller
// that waits for each answer before sending the next needs.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// reply is an fdiamd /diameter response, with the client-side latency.
type reply struct {
	answer
	ElapsedNS      int64 `json:"elapsed_ns"`
	GraphCacheHit  bool  `json:"graph_cache_hit"`
	ResultCacheHit bool  `json:"result_cache_hit"`
	latencyMS      float64
}

// post sends one request and reads the whole reply; the latency runs from
// the call to the last byte of the body. A non-200 status is an error.
func post(c *http.Client, url string, body []byte) (reply, error) {
	var r reply
	t0 := time.Now()
	resp, err := c.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return r, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.latencyMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	if err != nil {
		return r, err
	}
	if resp.StatusCode != http.StatusOK {
		return r, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("decode reply: %w", err)
	}
	return r, nil
}
