package messaging

// MailboxSize reports a user's stored message count.
func (s *Server) MailboxSize(user string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.mailboxes[user])
}
