package tlsterm

import "libseal/internal/pki"

// ID returns the connection identifier used by taps.
func (s *SSL) ID() uint64 { return s.id }

// PeerSubject returns the authenticated client subject, if any.
func (s *SSL) PeerSubject() string {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	return s.shadow.PeerSubject
}

// PeerCertificate returns the authenticated peer certificate, or nil.
func (c *Conn) PeerCertificate() *pki.Certificate { return c.peer }
