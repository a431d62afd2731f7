package tlsterm

import "libseal/internal/pki"

// ID returns the connection identifier used by taps.
func (s *SSL) ID() uint64 { return s.id }

// PeerSubject returns the authenticated client subject of an established
// session, if any, as the enclave-resident session holds it.
func (s *SSL) PeerSubject() string {
	in := s.lib.inside
	in.mu.Lock()
	defer in.mu.Unlock()
	if sess := in.sessions[s.id]; sess != nil && sess.peer != nil {
		return sess.peer.Subject
	}
	return ""
}

// PeerCertificate returns the authenticated peer certificate, or nil.
func (c *Conn) PeerCertificate() *pki.Certificate { return c.peer }
