package apache

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"libseal/internal/asyncall"
	"libseal/internal/httpparse"
	"libseal/internal/netsim"
	"libseal/internal/testutil"
	"libseal/internal/tlsterm"
)

func startServer(t *testing.T, cfg Config) (*netsim.Network, *Server) {
	t.Helper()
	nw := netsim.NewNetwork()
	l, err := nw.Listen("apache:443")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(srv.Close)
	return nw, srv
}

// waitServed polls Served to a deadline. The server counts a request as
// completed after its response is written, so a client can hold the last
// response before the count includes it.
func waitServed(t *testing.T, srv *Server, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Served() != want {
		if time.Now().After(deadline) {
			t.Fatalf("served = %d, want %d", srv.Served(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestServeStaticNative(t *testing.T) {
	env, err := testutil.NewCertEnv("apache.test")
	if err != nil {
		t.Fatal(err)
	}
	content := bytes.Repeat([]byte("x"), 1024)
	nw, srv := startServer(t, Config{
		Terminator: tlsterm.NewNativeTerminator(env.ServerConfig()),
		Handler:    &StaticHandler{Content: content},
		KeepAlive:  true,
	})
	client := testutil.NewHTTPClient(func() (net.Conn, error) { return nw.Dial("apache:443") },
		env.ClientConfig("apache.test"), true)
	defer client.Close()
	for i := 0; i < 5; i++ {
		rsp, err := client.Do(httpparse.NewRequest("GET", fmt.Sprintf("/file%d", i), nil))
		if err != nil {
			t.Fatal(err)
		}
		if rsp.Status != 200 || !bytes.Equal(rsp.Body, content) {
			t.Fatalf("rsp %d: status=%d len=%d", i, rsp.Status, len(rsp.Body))
		}
	}
	waitServed(t, srv, 5)
}

func TestServeViaLibSEALTerminator(t *testing.T) {
	env, err := testutil.NewCertEnv("apache.test")
	if err != nil {
		t.Fatal(err)
	}
	_, bridge, err := testutil.NewBridge(testutil.BridgeOptions{Mode: asyncall.ModeAsync})
	if err != nil {
		t.Fatal(err)
	}
	defer bridge.Close()
	lib, err := tlsterm.NewLibrary(bridge, tlsterm.LibraryConfig{
		Cert: env.Cert, Key: env.Key, Opts: tlsterm.AllOptimizations(),
	})
	if err != nil {
		t.Fatal(err)
	}
	nw, _ := startServer(t, Config{
		Terminator: lib.Terminator(),
		Handler:    &StaticHandler{Content: []byte("enclave content")},
		KeepAlive:  true,
		UseExData:  true,
	})
	client := testutil.NewHTTPClient(func() (net.Conn, error) { return nw.Dial("apache:443") },
		env.ClientConfig("apache.test"), true)
	defer client.Close()
	rsp, err := client.Do(httpparse.NewRequest("GET", "/x", nil))
	if err != nil || string(rsp.Body) != "enclave content" {
		t.Fatalf("rsp = %v, %v", rsp, err)
	}
}

// TestExDataEcallsPerRequest: a UseExData front end sets the request on the
// TLS object and reads it back once per request. With ExDataOutside off each
// of the two is an ecall, with it on neither is, so ecalls per request differ
// by exactly 2 between the two, the difference -experiment sec42 reports.
func TestExDataEcallsPerRequest(t *testing.T) {
	env, err := testutil.NewCertEnv("apache.test")
	if err != nil {
		t.Fatal(err)
	}
	const requests = 5
	ecalls := func(outside bool) int64 {
		encl, bridge, err := testutil.NewBridge(testutil.BridgeOptions{Mode: asyncall.ModeSync})
		if err != nil {
			t.Fatal(err)
		}
		defer bridge.Close()
		opts := tlsterm.AllOptimizations()
		opts.ExDataOutside = outside
		lib, err := tlsterm.NewLibrary(bridge, tlsterm.LibraryConfig{Cert: env.Cert, Key: env.Key, Opts: opts})
		if err != nil {
			t.Fatal(err)
		}
		nw, _ := startServer(t, Config{
			Terminator: lib.Terminator(),
			Handler:    &StaticHandler{Content: []byte("ex_data")},
			KeepAlive:  true,
			UseExData:  true,
		})
		client := testutil.NewHTTPClient(func() (net.Conn, error) { return nw.Dial("apache:443") },
			env.ClientConfig("apache.test"), true)
		defer client.Close()
		do := func() {
			if rsp, err := client.Do(httpparse.NewRequest("GET", "/x", nil)); err != nil || rsp.Status != 200 {
				t.Fatalf("rsp = %v, %v", rsp, err)
			}
		}
		do() // the handshake's ecalls are not the request's
		// A response reaches the client after the server's last ecall for
		// it, and the server then waits on the network outside the enclave.
		before := encl.Stats().Ecalls
		for i := 0; i < requests; i++ {
			do()
		}
		return encl.Stats().Ecalls - before
	}
	inside, outside := ecalls(false), ecalls(true)
	if inside-outside != 2*requests {
		t.Fatalf("%d ecalls with ex_data inside, %d outside over %d requests; want a difference of %d", inside, outside, requests, 2*requests)
	}
}

func TestNonPersistentConnections(t *testing.T) {
	env, _ := testutil.NewCertEnv("apache.test")
	nw, srv := startServer(t, Config{
		Terminator: tlsterm.NewNativeTerminator(env.ServerConfig()),
		Handler:    &StaticHandler{Content: []byte("one-shot")},
		KeepAlive:  false,
	})
	client := testutil.NewHTTPClient(func() (net.Conn, error) { return nw.Dial("apache:443") },
		env.ClientConfig("apache.test"), false)
	for i := 0; i < 3; i++ {
		rsp, err := client.Do(httpparse.NewRequest("GET", "/", nil))
		if err != nil || rsp.Status != 200 {
			t.Fatalf("request %d: %v %v", i, rsp, err)
		}
		if rsp.Header.Get("Connection") != "close" {
			t.Fatal("missing Connection: close")
		}
	}
	waitServed(t, srv, 3)
}

func TestConcurrentClients(t *testing.T) {
	env, _ := testutil.NewCertEnv("apache.test")
	nw, _ := startServer(t, Config{
		Terminator: tlsterm.NewNativeTerminator(env.ServerConfig()),
		Handler:    &StaticHandler{Content: []byte("c")},
		KeepAlive:  true,
	})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := testutil.NewHTTPClient(func() (net.Conn, error) { return nw.Dial("apache:443") },
				env.ClientConfig("apache.test"), true)
			defer client.Close()
			for j := 0; j < 10; j++ {
				if _, err := client.Do(httpparse.NewRequest("GET", "/", nil)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestReverseProxy(t *testing.T) {
	env, _ := testutil.NewCertEnv("apache.test")
	nw := netsim.NewNetwork()

	// Plain-HTTP backend.
	backendListener, _ := nw.Listen("backend:80")
	backend, _ := New(Config{
		Terminator: tlsterm.PlainTerminator{},
		Handler: HandlerFunc(func(req *httpparse.Request) *httpparse.Response {
			return httpparse.NewResponse(200, []byte("from backend "+req.Path))
		}),
	})
	go backend.Serve(backendListener)
	defer backend.Close()

	// TLS front-end proxying to it.
	frontListener, _ := nw.Listen("front:443")
	front, _ := New(Config{
		Terminator: tlsterm.NewNativeTerminator(env.ServerConfig()),
		Handler:    &ReverseProxy{Dial: func() (net.Conn, error) { return nw.Dial("backend:80") }},
		KeepAlive:  true,
	})
	go front.Serve(frontListener)
	defer front.Close()

	client := testutil.NewHTTPClient(func() (net.Conn, error) { return nw.Dial("front:443") },
		env.ClientConfig("apache.test"), true)
	defer client.Close()
	rsp, err := client.Do(httpparse.NewRequest("GET", "/repo", nil))
	if err != nil || string(rsp.Body) != "from backend /repo" {
		t.Fatalf("rsp = %v, %v", rsp, err)
	}
}

// TestReverseProxyForwardsInOneWrite: the forwarded request reaches the
// backend as one write — one packet on the simulated network — so the
// backend's first read holds all of it.
func TestReverseProxyForwardsInOneWrite(t *testing.T) {
	nw := netsim.NewNetwork()
	ln, err := nw.Listen("backend:80")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	firstRead := make(chan []byte, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			firstRead <- nil
			return
		}
		defer conn.Close()
		buf := make([]byte, 64<<10)
		n, _ := conn.Read(buf)
		firstRead <- buf[:n]
		_ = httpparse.NewResponse(200, []byte("ok")).Encode(conn)
	}()
	proxy := &ReverseProxy{Dial: func() (net.Conn, error) { return nw.Dial("backend:80") }}
	req := httpparse.NewRequest("POST", "/repo/git-receive-pack", []byte("create main c1"))
	req.Header.Set("X-Forwarded-For", "client")
	if rsp := proxy.Handle(req); rsp.Status != 200 || string(rsp.Body) != "ok" {
		t.Fatalf("rsp = %d %q", rsp.Status, rsp.Body)
	}
	got := <-firstRead
	fwd, n, err := httpparse.ConsumeRequest(got)
	if err != nil || n != len(got) || string(fwd.Body) != "create main c1" || fwd.Header.Get("Connection") != "close" {
		t.Fatalf("backend's first read: %q (%v)", got, err)
	}
}

func TestReverseProxyBackendDown(t *testing.T) {
	env, _ := testutil.NewCertEnv("apache.test")
	nw, _ := startServer(t, Config{
		Terminator: tlsterm.NewNativeTerminator(env.ServerConfig()),
		Handler:    &ReverseProxy{Dial: func() (net.Conn, error) { return nil, fmt.Errorf("down") }},
		KeepAlive:  true,
	})
	client := testutil.NewHTTPClient(func() (net.Conn, error) { return nw.Dial("apache:443") },
		env.ClientConfig("apache.test"), true)
	defer client.Close()
	rsp, err := client.Do(httpparse.NewRequest("GET", "/", nil))
	if err != nil || rsp.Status != 502 {
		t.Fatalf("rsp = %v, %v", rsp, err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}
