package dropbox

// InjectStaleMetadata serves the previous blocklist of a file.
func (s *Server) InjectStaleMetadata(file string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.faults.ServeStaleFor[file] = true
}

// FileCount reports an account's live file count (test introspection).
func (s *Server) FileCount(account string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.accounts[account])
}
