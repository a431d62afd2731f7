package squid

// RelayedBytes reports the total bytes relayed in both directions.
func (p *Proxy) RelayedBytes() int64 { return p.relayed.Load() }
