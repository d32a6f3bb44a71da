package main

import (
	"bufio"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"runtime/debug"
	"testing"
	"time"
)

// expectClosedByServer reads r until the server closes the connection,
// failing if it is still open after a few seconds.
func expectClosedByServer(t *testing.T, conn net.Conn, r io.Reader, what string) {
	t.Helper()
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	_, err := io.Copy(io.Discard, r)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("%s: connection still open after 5s", what)
	}
}

// TestHTTPServerClosesSilentAndIdleConnections runs newHTTPServer with
// millisecond timeouts: a connection that never sends a request header
// and a keep-alive connection left idle after one request must both be
// closed by the server.
func TestHTTPServerClosesSilentAndIdleConnections(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ok := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "ok") })
	srv := newHTTPServer(ok, 50*time.Millisecond, 50*time.Millisecond)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()

	silent, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	expectClosedByServer(t, silent, silent, "a connection that sends no header")

	idle, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	if _, err := io.WriteString(idle, "GET / HTTP/1.1\r\nHost: trictd\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(idle)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || string(body) != "ok" || resp.Close {
		t.Fatalf("keep-alive request: status %d, body %q, close %v, err %v", resp.StatusCode, body, resp.Close, err)
	}
	expectClosedByServer(t, idle, br, "an idle keep-alive connection")
}

// TestServingGCPolicy: with GOGC unset, setServingGC puts the collector
// at servingGCPercent; with GOGC set to any value, empty included, it
// leaves the collector's percent as it was.
func TestServingGCPolicy(t *testing.T) {
	orig := debug.SetGCPercent(100)
	defer debug.SetGCPercent(orig)

	setServingGC(func(string) (string, bool) { return "", false })
	if got := debug.SetGCPercent(100); got != servingGCPercent {
		t.Fatalf("GOGC unset: collector at %d, want %d", got, servingGCPercent)
	}
	for _, v := range []string{"100", "off", "25", "200", ""} {
		debug.SetGCPercent(73)
		setServingGC(func(key string) (string, bool) { return v, key == "GOGC" })
		if got := debug.SetGCPercent(100); got != 73 {
			t.Fatalf("GOGC=%q: collector at %d, want it left at 73", v, got)
		}
	}
}
