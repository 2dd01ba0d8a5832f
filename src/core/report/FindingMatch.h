//===- core/report/FindingMatch.h - Cross-run finding identity -*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The finding-identity layer shared by every tool that correlates
/// findings across profiler runs (`cheetah-diff` for pairs,
/// `cheetah-trend` for N-run history stores): the reduced per-finding
/// record extracted from a parsed report, the site-key disambiguation
/// that keeps repeated keys (many pages of one array) positionally
/// stable, and the added/removed/matched classification between two
/// runs' finding lists.
///
/// Identity is deliberately *site-based*, not address-based: a line
/// finding is keyed by its object kind and callsite/global name, a page
/// finding by the set of object names overlapping the page. Fixed
/// variants relocate objects (padding changes sizes and addresses), so
/// address keys would make every broken-vs-fixed comparison degenerate
/// to "everything added, everything removed".
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_CORE_REPORT_FINDINGMATCH_H
#define CHEETAH_CORE_REPORT_FINDINGMATCH_H

#include "mem/NumaTopology.h"

#include <cstdint>
#include <string>
#include <vector>

namespace cheetah {
namespace core {

/// One finding extracted from a parsed report, at either granularity,
/// reduced to what cross-run correlation needs.
struct DiffFinding {
  /// Stable matching identity (site key + ordinal; see file comment).
  std::string Key;
  /// Sharing kind string exactly as emitted ("false-sharing", ...).
  std::string Sharing;
  /// True for a page finding, false for a line (object) finding.
  bool IsPage = false;
  bool Significant = false;
  /// Predicted whole-program improvement factor from fixing the finding.
  /// v2 page findings predate page assessment and carry none
  /// (HasImprovement false, Improvement 1.0).
  double Improvement = 1.0;
  bool HasImprovement = false;
  uint64_t Accesses = 0;
  uint64_t Invalidations = 0;
  /// Page findings only.
  uint64_t RemoteAccesses = 0;
  /// Remote traffic by crossed node-pair distance; only page findings of
  /// v4 and later documents carry it (empty otherwise).
  std::vector<RemoteDistanceStats> RemoteByDistance;
};

/// One finding present in both of two compared runs.
struct MatchedFinding {
  DiffFinding Old;
  DiffFinding New;

  double improvementDelta() const {
    return New.Improvement - Old.Improvement;
  }
};

/// Appends "#N" ordinals so repeated site keys (many pages of one array)
/// stay distinct and pair positionally across runs. Both report sinks
/// emit findings deterministically (best-first), which is what makes the
/// positional pairing meaningful.
void disambiguateKeys(std::vector<DiffFinding> &Findings);

/// Splits \p New against \p Old by key: every new finding either claims
/// its counterpart (-> \p Matched) or lands in \p Added; old findings
/// nobody claimed land in \p Removed, preserving old-report order.
void matchFindings(const std::vector<DiffFinding> &Old,
                   const std::vector<DiffFinding> &New,
                   std::vector<DiffFinding> &Added,
                   std::vector<DiffFinding> &Removed,
                   std::vector<MatchedFinding> &Matched);

/// "1.2345x" for findings carrying an improvement factor, "n/a"
/// otherwise — the shared rendering both CLIs use.
std::string improvementString(const DiffFinding &Finding);

} // namespace core
} // namespace cheetah

#endif // CHEETAH_CORE_REPORT_FINDINGMATCH_H
