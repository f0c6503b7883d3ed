package core

// RBCDigestBytes returns the bytes this node's broadcaster retains in
// compact delivered records — the residue pruning keeps for the node's
// lifetime, one record per terminal instance (see rbc.Broadcaster.DigestBytes).
func (n *Node) RBCDigestBytes() int { return n.bcast.DigestBytes() }
