// Command libseal-client issues requests to a libseal-server instance over
// the secure-channel protocol. It verifies the server certificate against
// the CA written by the server and can trigger in-band invariant checks via
// the Libseal-Check header (§5.2).
//
// Usage:
//
//	libseal-client -connect localhost:8443 -ca ./ca.pem \
//	    -method POST -path /git/demo/git-receive-pack -body "create main c1"
//	libseal-client -connect localhost:8443 -ca ./ca.pem \
//	    -path /git/demo/info/refs -check
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"

	"libseal"
	"libseal/internal/httpparse"
	"libseal/internal/pki"
)

func main() {
	connect := flag.String("connect", "localhost:8443", "server address")
	caPath := flag.String("ca", "", "path to the server's ca.pem (omit to skip verification)")
	method := flag.String("method", "GET", "HTTP method")
	path := flag.String("path", "/", "request path")
	body := flag.String("body", "", "request body")
	check := flag.Bool("check", false, "trigger an invariant check with this request")
	serverName := flag.String("server-name", "libseal-server", "expected certificate subject")
	flag.Parse()

	cfg := &libseal.ClientConfig{InsecureSkipVerify: true}
	if *caPath != "" {
		pemData, err := os.ReadFile(*caPath)
		if err != nil {
			log.Fatal(err)
		}
		caCert, err := pki.DecodeCertPEM(pemData)
		if err != nil {
			log.Fatal(err)
		}
		pool := pki.NewPool()
		pool.AddRoot(caCert.Subject, caCert.PubKey)
		cfg = &libseal.ClientConfig{Roots: pool, ServerName: *serverName}
	}

	raw, err := net.Dial("tcp", *connect)
	if err != nil {
		log.Fatal(err)
	}
	conn, err := libseal.ConnectTLS(raw, cfg)
	if err != nil {
		log.Fatalf("handshake: %v", err)
	}
	defer conn.Close()

	req := httpparse.NewRequest(*method, *path, []byte(*body))
	if *check {
		req.Header.Set(libseal.CheckHeader, "1")
	}
	if err := req.Encode(conn); err != nil {
		log.Fatal(err)
	}
	rsp, err := httpparse.ParseResponseBytes(readAll(conn))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s %d %s\n", rsp.Proto, rsp.Status, rsp.Reason)
	for _, k := range rsp.Header.Keys() {
		fmt.Printf("%s: %s\n", k, rsp.Header.Get(k))
	}
	fmt.Println()
	os.Stdout.Write(rsp.Body)
	if result := rsp.Header.Get(libseal.CheckResultHeader); result != "" {
		fmt.Fprintf(os.Stderr, "\ncheck result: %s\n", result)
	}
}

// readAll reads until the response is complete (the server answers one
// request per connection invocation here, so read until parse succeeds).
func readAll(conn interface{ Read([]byte) (int, error) }) []byte {
	var buf []byte
	tmp := make([]byte, 32*1024)
	for {
		n, err := conn.Read(tmp)
		buf = append(buf, tmp[:n]...)
		if _, perr := httpparse.FrameResponse(buf); perr == nil {
			return buf
		}
		if err != nil {
			return buf
		}
	}
}
