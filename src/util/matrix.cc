#include "util/matrix.h"

#include <cmath>
#include <string>

namespace dbtune {

namespace {

// The pivot of column j from its Crout residual `d`: its square root, or
// a failure naming the column when `d` is not a positive finite number.
Status Pivot(double d, size_t j, double* out) {
  if (d <= 0.0 || !std::isfinite(d)) {
    return Status::Internal("matrix is not positive definite (column " +
                            std::to_string(j) + ")");
  }
  *out = std::sqrt(d);
  return Status::OK();
}

// Solves L[0:n, 0:n] x = b in place: x holds b on entry, L is the
// leading block of lower-triangular `l`. `x` may be a row of `l` at or
// past n. Unknowns run in groups of four: the group's accumulators share
// the finished prefix k < j0 (one load of x[k] feeds four chains), then
// finish their in-group triangle in order. Every unknown keeps the
// scalar substitution's operation sequence, k ascending.
void ForwardSubstituteInPlace(const Matrix& l, size_t n, double* x) {
  size_t j0 = 0;
  for (; j0 + 4 <= n; j0 += 4) {
    const double* r0 = l.RowPtr(j0);
    const double* r1 = l.RowPtr(j0 + 1);
    const double* r2 = l.RowPtr(j0 + 2);
    const double* r3 = l.RowPtr(j0 + 3);
    double s0 = x[j0], s1 = x[j0 + 1], s2 = x[j0 + 2], s3 = x[j0 + 3];
    for (size_t k = 0; k < j0; ++k) {
      const double xk = x[k];
      s0 -= r0[k] * xk;
      s1 -= r1[k] * xk;
      s2 -= r2[k] * xk;
      s3 -= r3[k] * xk;
    }
    const double x0 = s0 / r0[j0];
    s1 -= r1[j0] * x0;
    const double x1 = s1 / r1[j0 + 1];
    s2 -= r2[j0] * x0;
    s2 -= r2[j0 + 1] * x1;
    const double x2 = s2 / r2[j0 + 2];
    s3 -= r3[j0] * x0;
    s3 -= r3[j0 + 1] * x1;
    s3 -= r3[j0 + 2] * x2;
    x[j0] = x0;
    x[j0 + 1] = x1;
    x[j0 + 2] = x2;
    x[j0 + 3] = s3 / r3[j0 + 3];
  }
  for (; j0 < n; ++j0) {
    const double* row = l.RowPtr(j0);
    double s = x[j0];
    for (size_t k = 0; k < j0; ++k) s -= row[k] * x[k];
    x[j0] = s / row[j0];
  }
}

}  // namespace

void Matrix::AddDiagonal(double value) {
  DBTUNE_CHECK(rows_ == cols_);
  for (size_t i = 0; i < rows_; ++i) (*this)(i, i) += value;
}

Status CholeskyFactorize(Matrix* a) {
  DBTUNE_CHECK(a != nullptr);
  DBTUNE_CHECK(a->rows() == a->cols());
  const size_t n = a->rows();
  Matrix& m = *a;
  // Row-oriented (Cholesky–Crout) update: both dot products below stream
  // two contiguous row prefixes, so the factorization touches memory
  // strictly row-by-row instead of striding down columns. The rows below
  // the pivot go four at a time: each keeps its own accumulator with k
  // ascending, so every entry is the scalar chain s -= l_ik * l_jk, and
  // the four chains share the row_j loads and overlap in the pipeline.
  for (size_t j = 0; j < n; ++j) {
    double* row_j = m.RowPtr(j);
    double d = row_j[j];
    for (size_t k = 0; k < j; ++k) d -= row_j[k] * row_j[k];
    double ljj = 0.0;
    DBTUNE_RETURN_IF_ERROR(Pivot(d, j, &ljj));
    row_j[j] = ljj;
    size_t i = j + 1;
    for (; i + 4 <= n; i += 4) {
      double* r0 = m.RowPtr(i);
      double* r1 = m.RowPtr(i + 1);
      double* r2 = m.RowPtr(i + 2);
      double* r3 = m.RowPtr(i + 3);
      double s0 = r0[j], s1 = r1[j], s2 = r2[j], s3 = r3[j];
      for (size_t k = 0; k < j; ++k) {
        const double ljk = row_j[k];
        s0 -= r0[k] * ljk;
        s1 -= r1[k] * ljk;
        s2 -= r2[k] * ljk;
        s3 -= r3[k] * ljk;
      }
      r0[j] = s0 / ljj;
      r1[j] = s1 / ljj;
      r2[j] = s2 / ljj;
      r3[j] = s3 / ljj;
    }
    for (; i < n; ++i) {
      double* row_i = m.RowPtr(i);
      double s = row_i[j];
      for (size_t k = 0; k < j; ++k) s -= row_i[k] * row_j[k];
      row_i[j] = s / ljj;
    }
    for (size_t c = j + 1; c < n; ++c) row_j[c] = 0.0;
  }
  return Status::OK();
}

Status CholeskyAppendRow(Matrix* l, size_t i) {
  DBTUNE_CHECK(l != nullptr);
  DBTUNE_CHECK(l->rows() == l->cols() && i < l->rows());
  double* row_i = l->RowPtr(i);
  ForwardSubstituteInPlace(*l, i, row_i);
  double d = row_i[i];
  for (size_t k = 0; k < i; ++k) d -= row_i[k] * row_i[k];
  DBTUNE_RETURN_IF_ERROR(Pivot(d, i, &row_i[i]));
  for (size_t c = i + 1; c < l->cols(); ++c) row_i[c] = 0.0;
  return Status::OK();
}

std::vector<double> SolveLowerTriangular(const Matrix& l,
                                         const std::vector<double>& b) {
  std::vector<double> x;
  SolveLowerTriangularInto(l, b, &x);
  return x;
}

void SolveLowerTriangularInto(const Matrix& l, const std::vector<double>& b,
                              std::vector<double>* x) {
  DBTUNE_CHECK(x != nullptr && x != &b);
  DBTUNE_CHECK(l.rows() == l.cols() && l.rows() == b.size());
  *x = b;
  ForwardSubstituteInPlace(l, b.size(), x->data());
}

std::vector<double> SolveUpperTriangularFromLower(
    const Matrix& l, const std::vector<double>& b) {
  DBTUNE_CHECK(l.rows() == l.cols() && l.rows() == b.size());
  const size_t n = b.size();
  std::vector<double> x(n, 0.0);
  if (n == 0) return x;
  const double* base = l.RowPtr(0);  // column i of L: base[k * n + i]
  for (size_t ii = n; ii > 0; --ii) {
    const size_t i = ii - 1;
    double s = b[i];
    for (size_t k = i + 1; k < n; ++k) s -= base[k * n + i] * x[k];
    x[i] = s / base[i * n + i];
  }
  return x;
}

Result<std::vector<double>> SolveSpd(const Matrix& a,
                                     const std::vector<double>& b) {
  if (a.rows() != a.cols() || a.rows() != b.size()) {
    return Status::InvalidArgument("SolveSpd: shape mismatch");
  }
  Matrix l = a;
  DBTUNE_RETURN_IF_ERROR(CholeskyFactorize(&l));
  std::vector<double> y = SolveLowerTriangular(l, b);
  return SolveUpperTriangularFromLower(l, y);
}

double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  DBTUNE_CHECK(a.size() == b.size());
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double SquaredDistance(const std::vector<double>& a,
                       const std::vector<double>& b) {
  DBTUNE_CHECK(a.size() == b.size());
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

}  // namespace dbtune
