package httpkit

import (
	"bytes"
	"context"
	"net/http"
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
	data, err := c.GetBytes(context.Background(), s.URL()+"/blob")
	if err != nil || len(data) != 3 {
		t.Fatalf("blob = %v, %v", data, err)
	}
	if _, err := c.GetBytes(context.Background(), s.URL()+"/fail"); !IsStatus(err, http.StatusNotFound) {
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
		return c.GetBytes(context.Background(), s.URL()+path)
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
