#ifndef FARVIEW_NET_QPAIR_H_
#define FARVIEW_NET_QPAIR_H_

namespace farview {

/// RDMA verbs understood by Farview's network stack: the two standard
/// one-sided verbs plus the Farview verb that invokes the loaded operator
/// pipeline over the read stream (Section 4.2).
enum class Verb {
  kRead,     ///< one-sided RDMA read of a virtual range
  kWrite,    ///< one-sided RDMA write into a virtual range
  kFarview,  ///< operator-offloading read: pipeline applied to the stream
};

/// Canonical name of a verb (for stats output and test failures).
const char* VerbToString(Verb v);

/// State describing one node-to-node RDMA flow (Section 4.3): "Farview
/// identifies flows using such queue pairs ... the queue pairs contain
/// unique identifiers which are used to differentiate the flows and to
/// provide isolation through a series of hardware arbiters."
///
/// A queue pair is created by `FarviewClient::OpenConnection` and is the
/// handle passed to every data-path call, mirroring the paper's API
/// (`bool openConnection(QPair *qp, FView *node)`).
struct QPair {
  /// Unique flow identifier, used for arbitration in every shared resource.
  int qp_id = -1;

  /// Client (connection owner) identifier; the MMU checks ownership with it.
  int client_id = -1;

  /// Dynamic region assigned to this connection ("each network connection
  /// flow and its corresponding queue pair gets associated with one of the
  /// virtual dynamic regions", Section 4.3).
  int region_id = -1;
};

}  // namespace farview

#endif  // FARVIEW_NET_QPAIR_H_
