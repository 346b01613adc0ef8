/**
 * @file
 * Channel<T>: a small bounded blocking channel for handing work and
 * events between host threads (the dtexld job queue, the event bus's
 * collector thread).
 */

#ifndef DTEXL_COMMON_CHANNEL_HH
#define DTEXL_COMMON_CHANNEL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace dtexl {

/**
 * Bounded multi-producer/multi-consumer blocking channel.
 *
 * push() blocks while the channel holds @c capacity items; pop()
 * blocks until an item arrives or the channel is closed and drained
 * (then returns nullopt). Not on any per-event hot path, so a
 * mutex + condition variable is the right tool: simple, fair and
 * ThreadSanitizer-clean.
 */
template <typename T>
class Channel
{
  public:
    explicit Channel(std::size_t capacity) : cap(capacity ? capacity : 1)
    {}

    Channel(const Channel &) = delete;
    Channel &operator=(const Channel &) = delete;

    /** Blocking send; returns false if the channel was closed. */
    bool
    push(T item)
    {
        std::unique_lock<std::mutex> lk(m);
        notFull.wait(lk, [&] { return q.size() < cap || closed; });
        if (closed)
            return false;
        q.push_back(std::move(item));
        lk.unlock();
        notEmpty.notify_one();
        return true;
    }

    /** Non-blocking send; returns false when full or closed. */
    bool
    tryPush(T item)
    {
        {
            std::lock_guard<std::mutex> lk(m);
            if (closed || q.size() >= cap)
                return false;
            q.push_back(std::move(item));
        }
        notEmpty.notify_one();
        return true;
    }

    /** Blocking receive; nullopt once closed and drained. */
    std::optional<T>
    pop()
    {
        std::unique_lock<std::mutex> lk(m);
        notEmpty.wait(lk, [&] { return !q.empty() || closed; });
        if (q.empty())
            return std::nullopt;
        T item = std::move(q.front());
        q.pop_front();
        lk.unlock();
        notFull.notify_one();
        return item;
    }

    /** Non-blocking receive; nullopt when currently empty. */
    std::optional<T>
    tryPop()
    {
        std::optional<T> item;
        {
            std::lock_guard<std::mutex> lk(m);
            if (q.empty())
                return std::nullopt;
            item.emplace(std::move(q.front()));
            q.pop_front();
        }
        notFull.notify_one();
        return item;
    }

    /** Close: wakes all blocked producers/consumers; push()es fail. */
    void
    close()
    {
        {
            std::lock_guard<std::mutex> lk(m);
            closed = true;
        }
        notEmpty.notify_all();
        notFull.notify_all();
    }

    std::size_t capacity() const { return cap; }

    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lk(m);
        return q.size();
    }

  private:
    const std::size_t cap;
    mutable std::mutex m;
    std::condition_variable notFull;
    std::condition_variable notEmpty;
    std::deque<T> q;
    bool closed = false;
};

} // namespace dtexl

#endif // DTEXL_COMMON_CHANNEL_HH
