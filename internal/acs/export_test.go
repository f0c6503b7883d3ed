package acs

// Buffered returns how many messages wait for binary instances this node
// has not opened.
func (n *Node) Buffered() int {
	total := 0
	for _, pr := range n.proposers {
		total += len(pr.pending)
	}
	return total
}
