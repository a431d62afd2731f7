package owncloud

// Ops returns the server's op log for a document (test introspection).
func (s *Server) Ops(doc string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.docs[doc]
	if !ok {
		return nil
	}
	return append([]string(nil), d.ops...)
}
