// The FIFO ring behind every per-Eject queue: parked demand, the data and
// control bands, the reader's buffer, withheld replies and the waiters of
// each condition. Those queues almost always hold 0-2 items, and there are
// several per Eject, so what an empty queue costs sets the footprint of a
// large topology.
#ifndef SRC_EDEN_RING_H_
#define SRC_EDEN_RING_H_

#include <compare>
#include <cstddef>
#include <iterator>
#include <memory>
#include <type_traits>
#include <utility>

namespace eden {

// A FIFO queue over one power-of-two buffer indexed by mask. The contract:
//   * A default-constructed or moved-from ring owns no buffer. The first push
//     allocates kInitialCapacity slots; a push into a full ring doubles them.
//   * clear() and the destructor destroy elements front to back, as
//     std::deque does. A destroyed ReplyHandle answers kCancelled, so the
//     order of those replies follows from this.
//   * Iteration runs front to back.
//   * Unlike std::deque, a push that grows the ring moves every element:
//     it invalidates references and iterators into the ring. A push that
//     does not grow keeps references valid.
template <typename T>
class Ring {
 public:
  static constexpr size_t kInitialCapacity = 4;

  template <bool Const>
  class Iter {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = std::conditional_t<Const, const T*, T*>;
    using reference = std::conditional_t<Const, const T&, T&>;
    using RingPtr = std::conditional_t<Const, const Ring*, Ring*>;

    Iter() = default;
    Iter(RingPtr ring, size_t index) : ring_(ring), index_(index) {}

    reference operator*() const { return (*ring_)[index_]; }
    pointer operator->() const { return &(*ring_)[index_]; }
    reference operator[](difference_type n) const { return *(*this + n); }
    Iter& operator++() { return *this += 1; }
    Iter operator++(int) { return std::exchange(*this, *this + 1); }
    Iter& operator--() { return *this -= 1; }
    Iter operator--(int) { return std::exchange(*this, *this - 1); }
    Iter& operator+=(difference_type n) {
      index_ += static_cast<size_t>(n);
      return *this;
    }
    Iter& operator-=(difference_type n) { return *this += -n; }
    friend Iter operator+(Iter it, difference_type n) { return it += n; }
    friend Iter operator+(difference_type n, Iter it) { return it += n; }
    friend Iter operator-(Iter it, difference_type n) { return it -= n; }
    friend difference_type operator-(const Iter& a, const Iter& b) {
      return static_cast<difference_type>(a.index_ - b.index_);
    }
    friend bool operator==(const Iter& a, const Iter& b) { return a.index_ == b.index_; }
    friend auto operator<=>(const Iter& a, const Iter& b) { return a.index_ <=> b.index_; }

   private:
    RingPtr ring_ = nullptr;
    size_t index_ = 0;  // position from the front
  };
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  Ring() = default;
  Ring(Ring&& other) noexcept
      : slots_(std::exchange(other.slots_, nullptr)),
        capacity_(std::exchange(other.capacity_, 0)),
        head_(std::exchange(other.head_, 0)),
        size_(std::exchange(other.size_, 0)) {}
  Ring& operator=(Ring&& other) noexcept {
    if (this != &other) {
      Release();
      slots_ = std::exchange(other.slots_, nullptr);
      capacity_ = std::exchange(other.capacity_, 0);
      head_ = std::exchange(other.head_, 0);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }
  ~Ring() { Release(); }

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  T& operator[](size_t i) { return slots_[(head_ + i) & (capacity_ - 1)]; }
  const T& operator[](size_t i) const { return slots_[(head_ + i) & (capacity_ - 1)]; }
  T& front() { return slots_[head_]; }
  const T& front() const { return slots_[head_]; }

  iterator begin() { return iterator(this, 0); }
  iterator end() { return iterator(this, size_); }
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size_); }

  template <typename... Args>
  void emplace_back(Args&&... args) {
    if (size_ == capacity_) {
      Grow(/*front=*/false, std::forward<Args>(args)...);
      return;
    }
    std::construct_at(&slots_[(head_ + size_) & (capacity_ - 1)], std::forward<Args>(args)...);
    size_++;
  }
  void push_back(const T& value) { emplace_back(value); }
  void push_back(T&& value) { emplace_back(std::move(value)); }
  void push_front(T&& value) {
    if (size_ == capacity_) {
      Grow(/*front=*/true, std::move(value));
      return;
    }
    head_ = (head_ - 1) & (capacity_ - 1);
    std::construct_at(&slots_[head_], std::move(value));
    size_++;
  }

  void pop_front() {
    std::destroy_at(&slots_[head_]);
    head_ = (head_ + 1) & (capacity_ - 1);
    size_--;
  }
  // Destroys the elements front to back and keeps the buffer.
  void clear() {
    for (size_t i = 0; i < size_; ++i) {
      std::destroy_at(&(*this)[i]);
    }
    head_ = 0;
    size_ = 0;
  }
  template <typename It>
  void assign(It first, It last) {
    clear();
    for (; first != last; ++first) {
      emplace_back(*first);
    }
  }

 private:
  // Moves the elements into a buffer twice the size and adds one at the
  // front or back. The new element is constructed first, so it may be a
  // copy of an element that is about to move.
  template <typename... Args>
  void Grow(bool front, Args&&... args) {
    static_assert(std::is_nothrow_move_constructible_v<T>);
    std::allocator<T> allocator;
    size_t capacity = capacity_ == 0 ? kInitialCapacity : 2 * capacity_;
    T* slots = allocator.allocate(capacity);
    try {
      std::construct_at(slots + (front ? 0 : size_), std::forward<Args>(args)...);
    } catch (...) {
      allocator.deallocate(slots, capacity);
      throw;
    }
    T* moved_to = slots + (front ? 1 : 0);
    for (size_t i = 0; i < size_; ++i) {
      T& old = (*this)[i];
      std::construct_at(moved_to + i, std::move(old));
      std::destroy_at(&old);
    }
    if (slots_ != nullptr) {
      allocator.deallocate(slots_, capacity_);
    }
    slots_ = slots;
    capacity_ = capacity;
    head_ = 0;
    size_++;
  }

  void Release() {
    clear();
    if (slots_ != nullptr) {
      std::allocator<T>().deallocate(slots_, capacity_);
    }
    slots_ = nullptr;
    capacity_ = 0;
  }

  T* slots_ = nullptr;
  size_t capacity_ = 0;  // 0 or a power of two
  size_t head_ = 0;      // slot of the front element
  size_t size_ = 0;
};

}  // namespace eden

#endif  // SRC_EDEN_RING_H_
