package mirror

// Subscribers reports the number of currently attached subscribers.
func (f *Feed) Subscribers() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.subs)
}
