package serve

import (
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestDaemonServerDisconnectsStalledHeader: a client that sends half a
// request header and then goes silent is disconnected once the header
// timeout passes, instead of holding its connection and goroutine forever.
func TestDaemonServerDisconnectsStalledHeader(t *testing.T) {
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer(ln.Addr().String(), http.NotFoundHandler())
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /optimize HTTP/1.1\r\nHost: neo\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	bound := readHeaderTimeout + 3*time.Second
	if err := conn.SetReadDeadline(start.Add(bound)); err != nil {
		t.Fatal(err)
	}
	// The server closes the connection: the read ends in EOF (or a reset),
	// never in this side's deadline.
	_, err = io.ReadAll(conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("a half-sent header still holds its connection after %v", time.Since(start).Round(time.Millisecond))
	}
}
