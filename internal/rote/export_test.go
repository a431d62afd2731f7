package rote

// ID returns the node's index within its group.
func (n *Node) ID() int { return n.id }
