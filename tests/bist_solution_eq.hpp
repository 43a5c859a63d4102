#pragma once
// Field-by-field comparison of two BIST solutions, for the allocator
// tests: roles, embeddings, area and untestable modules, tie-breaks
// included.  Exactness is left to each test.

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "bist/allocator.hpp"

namespace lbist::testing {

inline bool same_embedding(const std::optional<BistEmbedding>& a,
                           const std::optional<BistEmbedding>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a.has_value()) return true;
  return a->module == b->module && a->tpg_left == b->tpg_left &&
         a->tpg_right == b->tpg_right && a->sa == b->sa &&
         a->left_through == b->left_through &&
         a->right_through == b->right_through &&
         a->left_via == b->left_via && a->right_via == b->right_via;
}

inline void expect_same_solution(const BistSolution& got,
                                 const BistSolution& want,
                                 const std::string& label) {
  EXPECT_EQ(got.extra_area, want.extra_area) << label;
  EXPECT_TRUE(got.roles == want.roles) << label;
  EXPECT_EQ(got.untestable_modules, want.untestable_modules) << label;
  ASSERT_EQ(got.embeddings.size(), want.embeddings.size()) << label;
  for (std::size_t m = 0; m < got.embeddings.size(); ++m) {
    EXPECT_TRUE(same_embedding(got.embeddings[m], want.embeddings[m]))
        << label << " module " << m;
  }
}

}  // namespace lbist::testing
