#include "util/matrix.h"

#include <cmath>
#include <limits>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "util/random.h"

namespace dbtune {
namespace {

// The scalar loops the factorization and the solves must match bit for
// bit: one serial chain per entry, k ascending.

// Cholesky–Crout, column by column; returns the first column whose pivot
// is not a positive finite number, with the matrix as the loop left it.
std::optional<size_t> ReferenceCholesky(Matrix* a) {
  const size_t n = a->rows();
  for (size_t j = 0; j < n; ++j) {
    double* row_j = a->RowPtr(j);
    double d = row_j[j];
    for (size_t k = 0; k < j; ++k) d -= row_j[k] * row_j[k];
    if (d <= 0.0 || !std::isfinite(d)) return j;
    const double ljj = std::sqrt(d);
    row_j[j] = ljj;
    for (size_t i = j + 1; i < n; ++i) {
      double* row_i = a->RowPtr(i);
      double s = row_i[j];
      for (size_t k = 0; k < j; ++k) s -= row_i[k] * row_j[k];
      row_i[j] = s / ljj;
    }
    for (size_t c = j + 1; c < n; ++c) row_j[c] = 0.0;
  }
  return std::nullopt;
}

std::vector<double> ReferenceForward(const Matrix& l,
                                     const std::vector<double>& b) {
  std::vector<double> x(b.size());
  for (size_t i = 0; i < b.size(); ++i) {
    double s = b[i];
    for (size_t k = 0; k < i; ++k) s -= l(i, k) * x[k];
    x[i] = s / l(i, i);
  }
  return x;
}

std::vector<double> ReferenceBackward(const Matrix& l,
                                      const std::vector<double>& b) {
  const size_t n = b.size();
  std::vector<double> x(n, 0.0);
  for (size_t ii = n; ii > 0; --ii) {
    const size_t i = ii - 1;
    double s = b[i];
    for (size_t k = i + 1; k < n; ++k) s -= l(k, i) * x[k];
    x[i] = s / l(i, i);
  }
  return x;
}

// A Gram matrix of random points under a squared-exponential kernel plus
// a small diagonal: SPD and ill-conditioned enough that rounding shows.
Matrix RandomSpd(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> x(n, std::vector<double>(5));
  for (auto& row : x) {
    for (double& v : row) v = rng.Uniform();
  }
  Matrix a(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      a(i, j) = std::exp(-SquaredDistance(x[i], x[j]) / 0.5);
    }
  }
  a.AddDiagonal(1e-3);
  return a;
}

std::vector<double> RandomVector(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.Uniform(-1.0, 1.0);
  return v;
}

const size_t kSizes[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 250};

TEST(MatrixTest, ConstructAndIndex) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = 7.0;
  EXPECT_DOUBLE_EQ(m(0, 1), 7.0);
}

TEST(MatrixTest, AddDiagonal) {
  Matrix m(2, 2, 1.0);
  m.AddDiagonal(0.5);
  EXPECT_DOUBLE_EQ(m(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(m(0, 1), 1.0);
}

TEST(CholeskyTest, FactorizesSpdMatrix) {
  // A = [[4, 2], [2, 3]] => L = [[2, 0], [1, sqrt(2)]].
  Matrix a(2, 2);
  a(0, 0) = 4;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 3;
  ASSERT_TRUE(CholeskyFactorize(&a).ok());
  EXPECT_NEAR(a(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(a(1, 0), 1.0, 1e-12);
  EXPECT_NEAR(a(1, 1), std::sqrt(2.0), 1e-12);
  EXPECT_DOUBLE_EQ(a(0, 1), 0.0);  // upper part zeroed
}

TEST(CholeskyTest, RejectsNonSpd) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 1;  // eigenvalues 3 and -1
  EXPECT_FALSE(CholeskyFactorize(&a).ok());
}

TEST(CholeskyTest, MatchesScalarCroutBitwise) {
  for (size_t n : kSizes) {
    const Matrix a = RandomSpd(n, 100 + n);
    Matrix expected = a;
    ASSERT_FALSE(ReferenceCholesky(&expected).has_value()) << n;
    Matrix actual = a;
    ASSERT_TRUE(CholeskyFactorize(&actual).ok()) << n;
    EXPECT_EQ(actual.data(), expected.data()) << "n=" << n;
  }
}

TEST(CholeskyTest, NonSpdFailsAtTheReferenceColumn) {
  for (size_t n : {5u, 9u, 65u}) {
    for (size_t bad : {size_t{0}, size_t{1}, n / 2, n - 1}) {
      for (double poison :
           {-1.0, 0.0, std::numeric_limits<double>::quiet_NaN()}) {
        Matrix a = RandomSpd(n, 300 + n);
        a(bad, bad) = poison;
        Matrix expected = a;
        const std::optional<size_t> column = ReferenceCholesky(&expected);
        ASSERT_TRUE(column.has_value());
        Matrix actual = a;
        const Status status = CholeskyFactorize(&actual);
        ASSERT_FALSE(status.ok());
        EXPECT_NE(status.message().find("(column " +
                                        std::to_string(*column) + ")"),
                  std::string::npos)
            << status.message() << " n=" << n << " bad=" << bad;
        // Columns before the failure are finished exactly as the
        // reference left them.
        const std::vector<double>& got = actual.data();
        const std::vector<double>& want = expected.data();
        for (size_t i = 0; i < got.size(); ++i) {
          if (std::isnan(want[i])) {
            EXPECT_TRUE(std::isnan(got[i]));
          } else {
            EXPECT_EQ(got[i], want[i]) << "entry " << i;
          }
        }
      }
    }
  }
}

TEST(CholeskyTest, AppendRowMatchesFullFactorization) {
  for (size_t n : kSizes) {
    const Matrix a = RandomSpd(n, 500 + n);
    Matrix expected = a;
    ASSERT_FALSE(ReferenceCholesky(&expected).has_value());
    Matrix grown = a;
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(CholeskyAppendRow(&grown, i).ok()) << i;
    }
    EXPECT_EQ(grown.data(), expected.data()) << "n=" << n;
  }
}

TEST(CholeskyTest, AppendRowRejectsBadPivot) {
  Matrix a = RandomSpd(6, 7);
  a(4, 4) = -1.0;
  for (size_t i = 0; i < 4; ++i) ASSERT_TRUE(CholeskyAppendRow(&a, i).ok());
  const Status status = CholeskyAppendRow(&a, 4);
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("(column 4)"), std::string::npos);
}

TEST(SolveTest, TriangularSolvesMatchScalarReferencesBitwise) {
  for (size_t n : kSizes) {
    Matrix l = RandomSpd(n, 700 + n);
    ASSERT_TRUE(CholeskyFactorize(&l).ok());
    const std::vector<double> b = RandomVector(n, 900 + n);
    EXPECT_EQ(SolveLowerTriangular(l, b), ReferenceForward(l, b)) << n;
    std::vector<double> into = {42.0};  // resized and overwritten
    SolveLowerTriangularInto(l, b, &into);
    EXPECT_EQ(into, ReferenceForward(l, b)) << n;
    EXPECT_EQ(SolveUpperTriangularFromLower(l, b), ReferenceBackward(l, b))
        << n;
  }
}

TEST(SolveTest, TriangularSolves) {
  Matrix l(2, 2);
  l(0, 0) = 2;
  l(1, 0) = 1;
  l(1, 1) = 3;
  const std::vector<double> b = {4.0, 11.0};
  const std::vector<double> x = SolveLowerTriangular(l, b);
  EXPECT_NEAR(x[0], 2.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);

  // L^T y = b  =>  [2 1; 0 3] y = [4; 11].
  const std::vector<double> y = SolveUpperTriangularFromLower(l, b);
  EXPECT_NEAR(y[1], 11.0 / 3.0, 1e-12);
  EXPECT_NEAR(y[0], (4.0 - y[1]) / 2.0, 1e-12);
}

TEST(SolveTest, SolveSpdRoundTrip) {
  Matrix a(3, 3, 0.0);
  // SPD via A = M M^T + I with a simple M.
  a(0, 0) = 5;
  a(0, 1) = 1;
  a(0, 2) = 0;
  a(1, 0) = 1;
  a(1, 1) = 4;
  a(1, 2) = 1;
  a(2, 0) = 0;
  a(2, 1) = 1;
  a(2, 2) = 3;
  const std::vector<double> truth = {1.0, -2.0, 0.5};
  // b = A * truth, computed by hand.
  const std::vector<double> b = {3.0, -6.5, -0.5};
  Result<std::vector<double>> x = SolveSpd(a, b);
  ASSERT_TRUE(x.ok());
  for (size_t i = 0; i < 3; ++i) EXPECT_NEAR((*x)[i], truth[i], 1e-10);
}

TEST(SolveTest, SolveSpdShapeMismatch) {
  Matrix a(2, 2, 1.0);
  Result<std::vector<double>> x = SolveSpd(a, {1.0, 2.0, 3.0});
  EXPECT_FALSE(x.ok());
  EXPECT_EQ(x.status().code(), StatusCode::kInvalidArgument);
}

TEST(VectorOpsTest, DotAndDistance) {
  EXPECT_DOUBLE_EQ(Dot({1, 2, 3}, {4, 5, 6}), 32.0);
  EXPECT_DOUBLE_EQ(SquaredDistance({0, 0}, {3, 4}), 25.0);
}

}  // namespace
}  // namespace dbtune
