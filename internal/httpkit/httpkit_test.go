package httpkit

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

func startTestServer(t *testing.T, mux *http.ServeMux) *Server {
	t.Helper()
	s, err := NewServer("test", "127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

func TestHealthAndReady(t *testing.T) {
	s := startTestServer(t, http.NewServeMux())
	c := NewClient(2 * time.Second)
	var health map[string]string
	if err := c.GetJSON(context.Background(), s.URL()+"/health", &health); err != nil {
		t.Fatal(err)
	}
	if health["service"] != "test" || health["status"] != "up" {
		t.Fatalf("health = %v", health)
	}
	if err := c.GetJSON(context.Background(), s.URL()+"/ready", nil); err != nil {
		t.Fatal(err)
	}
	s.SetReady(false)
	err := c.GetJSON(context.Background(), s.URL()+"/ready", nil)
	if !IsStatus(err, http.StatusServiceUnavailable) {
		t.Fatalf("not-ready error = %v", err)
	}
	if s.Name() != "test" || s.Requests() < 2 {
		t.Fatal("metadata wrong")
	}
}

func TestJSONRoundTripAndErrors(t *testing.T) {
	type payload struct {
		Name string `json:"name"`
		N    int    `json:"n"`
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /echo", func(w http.ResponseWriter, r *http.Request) {
		var p payload
		if err := ReadJSON(r, &p); err != nil {
			WriteError(w, http.StatusBadRequest, "bad body: %v", err)
			return
		}
		p.N++
		WriteJSON(w, http.StatusOK, p)
	})
	s := startTestServer(t, mux)
	c := NewClient(2 * time.Second)

	var out payload
	if err := c.PostJSON(context.Background(), s.URL()+"/echo", payload{Name: "x", N: 1}, &out); err != nil {
		t.Fatal(err)
	}
	if out.N != 2 || out.Name != "x" {
		t.Fatalf("echo = %+v", out)
	}

	// Unknown fields are rejected.
	err := c.PostJSON(context.Background(), s.URL()+"/echo",
		map[string]any{"name": "x", "n": 1, "bogus": true}, nil)
	if !IsStatus(err, http.StatusBadRequest) {
		t.Fatalf("unknown-field error = %v", err)
	}
}

func TestRecoverMiddleware(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /boom", func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})
	s := startTestServer(t, mux)
	c := NewClient(2 * time.Second)
	err := c.GetJSON(context.Background(), s.URL()+"/boom", nil)
	if !IsStatus(err, http.StatusInternalServerError) {
		t.Fatalf("panic error = %v", err)
	}
	if !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("panic message lost: %v", err)
	}
}

func TestErrorBodyFormatting(t *testing.T) {
	e := &ErrorBody{Status: 404, Message: "nope"}
	if e.Error() != "http 404: nope" {
		t.Fatalf("Error() = %q", e.Error())
	}
	if IsStatus(e, 500) || !IsStatus(e, 404) || IsStatus(nil, 404) {
		t.Fatal("IsStatus wrong")
	}
}

func TestNonJSONErrorBody(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /plain", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "plain text failure", http.StatusTeapot)
	})
	s := startTestServer(t, mux)
	c := NewClient(2 * time.Second)
	err := c.GetJSON(context.Background(), s.URL()+"/plain", nil)
	if !IsStatus(err, http.StatusTeapot) {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(err.Error(), "plain text failure") {
		t.Fatalf("plain body lost: %v", err)
	}
}

func TestGetBytes(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /blob", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte{1, 2, 3})
	})
	mux.HandleFunc("GET /fail", func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, http.StatusNotFound, "no blob")
	})
	s := startTestServer(t, mux)
	c := NewClient(2 * time.Second)
	data, err := c.GetBytes(context.Background(), s.URL()+"/blob", nil)
	if err != nil || len(data) != 3 {
		t.Fatalf("blob = %v, %v", data, err)
	}
	// A body is appended to dst, in place when dst has room.
	dst := make([]byte, 1, 16)
	dst[0] = 9
	if data, err := c.GetBytes(context.Background(), s.URL()+"/blob", dst); err != nil ||
		!bytes.Equal(data, []byte{9, 1, 2, 3}) || &data[0] != &dst[0] {
		t.Fatalf("blob appended to dst = %v, %v; want [9 1 2 3] in dst's array", data, err)
	}
	if _, err := c.GetBytes(context.Background(), s.URL()+"/fail", nil); !IsStatus(err, http.StatusNotFound) {
		t.Fatalf("fail err = %v", err)
	}
}

// TestGetBytesBodyLength pins how GetBytes reads a body: a declared
// length exactly, an undeclared (chunked, /metrics-style) one up to the
// cap, and anything over the cap or short of its declared length as an
// error instead of a truncated payload.
func TestGetBytesBodyLength(t *testing.T) {
	chunk := bytes.Repeat([]byte("0123456789abcdef"), 4096) // 64 KiB
	// Without a declared length, a body larger than net/http buffers is
	// sent chunked.
	body := func(total int, declared bool) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if declared {
				w.Header().Set("Content-Length", strconv.Itoa(total))
			}
			for left := total; left > 0; left -= len(chunk) {
				if _, err := w.Write(chunk[:min(left, len(chunk))]); err != nil {
					return
				}
			}
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /declared", body(len(chunk), true))
	mux.HandleFunc("GET /chunked", body(3*len(chunk)+5, false))
	mux.HandleFunc("GET /declared-over-cap", body(maxBytesBody+1, true))
	mux.HandleFunc("GET /chunked-over-cap", body(maxBytesBody+1, false))
	mux.HandleFunc("GET /short", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "10")
		w.Write([]byte{1, 2, 3})
	})
	s := startTestServer(t, mux)
	c := NewClient(10 * time.Second)
	get := func(path string) ([]byte, error) {
		return c.GetBytes(context.Background(), s.URL()+path, nil)
	}

	if data, err := get("/declared"); err != nil || !bytes.Equal(data, chunk) || cap(data) != len(chunk) {
		t.Fatalf("declared: len %d cap %d err %v; want the %d-byte body in an exact buffer",
			len(data), cap(data), err, len(chunk))
	}
	want := append(bytes.Repeat(chunk, 3), chunk[:5]...)
	if data, err := get("/chunked"); err != nil || !bytes.Equal(data, want) {
		t.Fatalf("chunked: len %d err %v; want %d bytes", len(data), err, len(want))
	}
	for _, path := range []string{"/declared-over-cap", "/chunked-over-cap", "/short"} {
		if data, err := get(path); err == nil {
			t.Errorf("%s: %d bytes, nil error; want an error", path, len(data))
		}
	}
}

func TestShutdownStopsServing(t *testing.T) {
	s := startTestServer(t, http.NewServeMux())
	url := s.URL()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	c := NewClient(500 * time.Millisecond)
	if err := c.GetJSON(context.Background(), url+"/health", nil); err == nil {
		t.Fatal("server still serving after shutdown")
	}
}

// waitClosedByServer reads from a client connection that never wrote
// until the server closes it, failing on data or on a 5 s client-side
// timeout.
func waitClosedByServer(t *testing.T, conn net.Conn) {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := conn.Read(make([]byte, 1))
	if n != 0 || err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("silent connection: read %d bytes, %v; want it closed by the server", n, err)
	}
}

// TestShutdownClosesSilentConn: a connection that never sends a byte,
// like a client transport's parked spare, does not hold Shutdown past
// its deadline (net/http alone waits 5 s for it).
func TestShutdownClosesSilentConn(t *testing.T) {
	s := startTestServer(t, http.NewServeMux())
	silent, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	// The listener accepts in order, so once a later connection has been
	// answered the silent one has been accepted too.
	if err := NewClient(time.Second).GetJSON(context.Background(), s.URL()+"/health", nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with a silent connection open: %v", err)
	}
	waitClosedByServer(t, silent)
}

// TestShutdownKeepsConnsThatSpoke: closing silent connections spares
// every connection that has sent a byte. A request whose handler is
// blocked when Shutdown starts, and one whose header has only begun to
// arrive, both complete with 200 after the silent connection is gone.
func TestShutdownKeepsConnsThatSpoke(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /block", func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		WriteJSON(w, http.StatusOK, map[string]string{"status": "done"})
	})
	s := startTestServer(t, mux)
	blocked := make(chan error, 1)
	go func() {
		blocked <- NewClient(10*time.Second).GetJSON(context.Background(), s.URL()+"/block", nil)
	}()
	<-entered

	silent, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	partial, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer partial.Close()
	if _, err := io.WriteString(partial, "GET /health HTTP/1.1\r\n"); err != nil {
		t.Fatal(err)
	}
	// A later connection's answer means both have been accepted; then
	// wait for the server to read the partial header's first bytes,
	// which leaves only the silent connection silent.
	if err := NewClient(time.Second).GetJSON(context.Background(), s.URL()+"/health", nil); err != nil {
		t.Fatal(err)
	}
	for {
		s.silentMu.Lock()
		n := len(s.silent)
		s.silentMu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	shut := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		shut <- s.Shutdown(ctx)
	}()
	waitClosedByServer(t, silent)

	if _, err := io.WriteString(partial, "Host: test\r\n\r\n"); err != nil {
		t.Fatalf("partial request's connection closed: %v", err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(partial), nil)
	if err != nil {
		t.Fatalf("partial request: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial request: status %d, want 200", resp.StatusCode)
	}
	close(release)
	if err := <-blocked; err != nil {
		t.Fatalf("blocked request: %v", err)
	}
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}
