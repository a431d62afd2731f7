package apache

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"libseal/internal/asyncall"
	"libseal/internal/httpparse"
	"libseal/internal/testutil"
	"libseal/internal/tlsterm"
)

// TestServeLargeResponseAllocation bounds what one 64 KiB static reply
// costs in allocation, front end to client, through the LibSEAL terminator:
// request parse and handler on the server, response encoded into a pooled
// buffer, sealed into pooled frames, carried by the simulated wire in pooled
// copies and read by the client into a reused sink. What is left is the
// request's and response's small objects — about 2.5 KiB, not one buffer the
// size of the reply. (Encoding into a fresh buffer and the wire's fresh copy
// per frame made it about two and a quarter times the reply.) Under the race
// detector sync.Pool drops a quarter of what is put back, so there the bound
// is one and a half times the reply.
func TestServeLargeResponseAllocation(t *testing.T) {
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
	content := bytes.Repeat([]byte("l"), 64<<10)
	nw, srv := startServer(t, Config{
		Terminator: lib.Terminator(),
		Handler:    &StaticHandler{Content: content},
		KeepAlive:  true,
		UseExData:  true,
	})
	raw, err := nw.Dial("apache:443")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := tlsterm.Connect(raw, env.ClientConfig("apache.test"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	request := httpparse.NewRequest("GET", "/l", nil).Bytes()
	response := httpparse.NewResponse(200, content).Bytes()
	sink := make([]byte, len(response))
	roundTrip := func() {
		if _, err := conn.Write(request); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, sink); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip() // fills the pools and sizes the record buffers

	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		roundTrip()
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	limit := uint64(8 << 10)
	if testutil.RaceEnabled {
		limit = uint64(len(response)) * 3 / 2
	}
	if perRun > limit {
		t.Fatalf("one %d-byte reply allocated %d bytes, want <= %d", len(response), perRun, limit)
	}
	if !bytes.Equal(sink, response) {
		t.Fatal("client read a different response")
	}
	waitServed(t, srv, runs+1)
}
