package gitserver

// Head returns a branch's current commit ID.
func (s *Server) Head(repo, branch string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.repos[repo]
	if !ok {
		return "", false
	}
	id, ok := r.Branches[branch]
	return id, ok
}
