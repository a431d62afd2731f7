package apache

// Served reports the number of requests completed.
func (s *Server) Served() int64 { return s.served.Load() }
