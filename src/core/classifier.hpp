/**
 * @file
 * Statistics-based application classification (§IV-D, Table III).
 *
 * When GPU memory first fills to capacity, HPE traverses the page-set
 * chain, buckets each set's saturating counter as regular/irregular and
 * small/large, and derives:
 *
 *   ratio1 = |irregular counters| / |regular counters|
 *   ratio2 = |large and regular| / |small and regular|
 *
 * Category: regular      (ratio1 <= t  and ratio2 < 2)
 *           irregular#1  (ratio1 <= t  and ratio2 >= 2)
 *           irregular#2  (ratio1 > t)
 */

#pragma once

#include <cstdint>
#include <limits>
#include <string>

#include "core/hpe_config.hpp"
#include "core/page_set_chain.hpp"

namespace hpe {

/** The three application categories of Table III. */
enum class Category : std::uint8_t { Regular, Irregular1, Irregular2 };

/** Printable category name. */
inline const char *
categoryName(Category c)
{
    switch (c) {
      case Category::Regular:
        return "regular";
      case Category::Irregular1:
        return "irregular#1";
      case Category::Irregular2:
        return "irregular#2";
    }
    return "?";
}

/** Counter-bucket tallies plus the derived ratios and category. */
struct ClassificationResult
{
    std::uint64_t regularCounters = 0;
    std::uint64_t irregularCounters = 0;
    std::uint64_t smallRegular = 0;
    std::uint64_t largeRegular = 0;
    double ratio1 = 0.0;
    double ratio2 = 0.0;
    Category category = Category::Regular;
    /** Old-partition population at classification time (gates the
     *  search-point jump for regular applications, §IV-E). */
    std::size_t oldPartitionSets = 0;
};

/**
 * Classify the application from the chain's counter statistics.
 *
 * Zero-denominator conventions: with no regular counters at all, ratio1 is
 * +inf (=> irregular#2); with no small-and-regular counters, ratio2 is
 * +inf when any large-and-regular counter exists, else 0.
 */
ClassificationResult classify(const HpeConfig &cfg, const PageSetChain &chain);

} // namespace hpe
