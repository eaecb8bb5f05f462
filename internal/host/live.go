package host

import (
	"crypto/ecdsa"
	"crypto/tls"
	"fmt"
	"net"
	"net/http"
	"sync"
)

// LiveServer is a real HTTPS server on a real socket that serves an
// arbitrary certificate chain and, optionally, an OCSP staple. The browser
// test suite and the live scanner connect to these.
type LiveServer struct {
	listener net.Listener
	server   *http.Server

	mu     sync.Mutex
	staple []byte
}

// LiveConfig configures a LiveServer.
type LiveConfig struct {
	// Chain is the DER certificate chain, leaf first (intermediates
	// follow; the root is conventionally omitted).
	Chain [][]byte
	// Key is the leaf's private key.
	Key *ecdsa.PrivateKey
	// Staple, when non-empty, is the DER OCSP response stapled into
	// handshakes. Real Nginx refuses to staple revoked/unknown
	// responses; like the paper's modified Nginx (§6.1), this server
	// staples whatever it is given.
	Staple []byte
	// Handler serves HTTP requests after the handshake; a trivial 200
	// handler when nil.
	Handler http.Handler
}

// NewLiveServer starts a TLS server on 127.0.0.1:0.
func NewLiveServer(cfg LiveConfig) (*LiveServer, error) {
	if len(cfg.Chain) == 0 {
		return nil, fmt.Errorf("host: live server needs a certificate chain")
	}
	ls := &LiveServer{staple: cfg.Staple}
	tlsCert := tls.Certificate{
		Certificate: cfg.Chain,
		PrivateKey:  cfg.Key,
	}
	tlsCfg := &tls.Config{
		GetCertificate: func(*tls.ClientHelloInfo) (*tls.Certificate, error) {
			c := tlsCert
			ls.mu.Lock()
			c.OCSPStaple = ls.staple
			ls.mu.Unlock()
			return &c, nil
		},
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	handler := cfg.Handler
	if handler == nil {
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Access-Control-Allow-Origin", "*")
			fmt.Fprintln(w, "ok")
		})
	}
	ls.listener = tls.NewListener(ln, tlsCfg)
	ls.server = &http.Server{Handler: handler}
	go ls.server.Serve(ls.listener)
	return ls, nil
}

// SetStaple replaces the staple served on subsequent handshakes; empty
// clears it.
func (ls *LiveServer) SetStaple(staple []byte) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.staple = staple
}

// Addr returns the server's host:port.
func (ls *LiveServer) Addr() string { return ls.listener.Addr().String() }

// Close shuts the server down.
func (ls *LiveServer) Close() error { return ls.server.Close() }
