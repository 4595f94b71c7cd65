/**
 * @file
 * A vector of trivially copyable elements with room for N of them inside
 * the object.
 *
 * Gate operands are one or two qubits and up to three angles, and
 * gates are copied at every stage of a compile, so a heap block per
 * operand list would be most of a compile's allocations. InlineVector
 * keeps up to N elements in place and moves to the heap only past
 * that (a barrier over many qubits). It offers the part of the
 * std::vector interface the circuit IR uses, and converts to and from
 * std::vector only through its iterator-range constructor.
 */
#ifndef XTALK_COMMON_INLINE_VECTOR_H
#define XTALK_COMMON_INLINE_VECTOR_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <type_traits>

#include "common/error.h"

namespace xtalk {

template <typename T, uint32_t N>
class InlineVector {
    static_assert(std::is_trivially_copyable_v<T>,
                  "InlineVector copies its elements as bytes");
    static_assert(N > 0, "InlineVector needs inline room");

  public:
    using value_type = T;
    using size_type = size_t;
    using iterator = T*;
    using const_iterator = const T*;

    InlineVector() = default;

    InlineVector(std::initializer_list<T> values)
        : InlineVector(values.begin(), values.end())
    {
    }

    template <typename It, typename Category = typename std::iterator_traits<
                               It>::iterator_category>
    InlineVector(It first, It last)
    {
        if constexpr (std::is_base_of_v<std::forward_iterator_tag,
                                        Category>) {
            reserve(static_cast<size_t>(std::distance(first, last)));
        }
        for (; first != last; ++first) {
            push_back(*first);
        }
    }

    InlineVector(const InlineVector& other) { CopyFrom(other); }

    InlineVector(InlineVector&& other) noexcept { StealFrom(other); }

    InlineVector&
    operator=(const InlineVector& other)
    {
        if (this != &other) {
            clear();
            CopyFrom(other);
        }
        return *this;
    }

    InlineVector&
    operator=(InlineVector&& other) noexcept
    {
        if (this != &other) {
            Release();
            StealFrom(other);
        }
        return *this;
    }

    InlineVector&
    operator=(std::initializer_list<T> values)
    {
        clear();
        reserve(values.size());
        std::copy(values.begin(), values.end(), data());
        size_ = static_cast<uint32_t>(values.size());
        return *this;
    }

    ~InlineVector() { Release(); }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    size_t capacity() const { return capacity_; }
    /** True while the elements live outside the object. */
    bool spilled() const { return capacity_ > N; }

    T* data() { return spilled() ? heap_ : inline_; }
    const T* data() const { return spilled() ? heap_ : inline_; }

    T& operator[](size_t i) { return data()[i]; }
    const T& operator[](size_t i) const { return data()[i]; }

    iterator begin() { return data(); }
    iterator end() { return data() + size_; }
    const_iterator begin() const { return data(); }
    const_iterator end() const { return data() + size_; }

    void
    push_back(const T& value)
    {
        if (size_ == capacity_) {
            // Copy first: value may name an element of this vector.
            const T copy = value;
            Grow(size_t{capacity_} * 2);
            data()[size_++] = copy;
            return;
        }
        data()[size_++] = value;
    }

    /** Drop every element; a heap block is kept for reuse. */
    void clear() { size_ = 0; }

    void
    reserve(size_t capacity)
    {
        if (capacity > capacity_) {
            Grow(capacity);
        }
    }

    friend bool
    operator==(const InlineVector& a, const InlineVector& b)
    {
        return std::equal(a.begin(), a.end(), b.begin(), b.end());
    }

  private:
    /** Move the elements into a heap block of @p capacity elements. */
    void
    Grow(size_t capacity)
    {
        XTALK_REQUIRE(capacity <= UINT32_MAX,
                      "InlineVector capacity " << capacity
                                               << " exceeds 2^32 - 1");
        T* block = new T[capacity];
        std::memcpy(block, data(), size_t{size_} * sizeof(T));
        Release();
        heap_ = block;
        capacity_ = static_cast<uint32_t>(capacity);
    }

    /** Free a heap block and return to the inline buffer; size kept. */
    void
    Release()
    {
        if (spilled()) {
            delete[] heap_;
            capacity_ = N;
        }
    }

    /** Requires an empty vector. */
    void
    CopyFrom(const InlineVector& other)
    {
        if (other.size_ > capacity_) {
            Grow(other.size_);
        }
        std::memcpy(data(), other.data(), size_t{other.size_} * sizeof(T));
        size_ = other.size_;
    }

    /** Requires this vector's heap block, if any, released; leaves
     *  @p other empty and inline. */
    void
    StealFrom(InlineVector& other)
    {
        if (other.spilled()) {
            heap_ = other.heap_;
            capacity_ = other.capacity_;
            other.capacity_ = N;
        } else {
            std::memcpy(inline_, other.inline_, sizeof(inline_));
        }
        size_ = other.size_;
        other.size_ = 0;
    }

    union {
        T inline_[N]{};
        T* heap_;
    };
    uint32_t size_ = 0;
    uint32_t capacity_ = N;
};

}  // namespace xtalk

#endif  // XTALK_COMMON_INLINE_VECTOR_H
