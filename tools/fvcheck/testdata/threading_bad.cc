// Positive fixture for the threading-primitive ban: every class of raw
// std:: synchronization that must stay out of the single-threaded tree.
#include <atomic>              // banned header
#include <condition_variable>  // banned header
#include <mutex>               // banned header
#include <thread>              // banned header

namespace bad {

std::mutex g_mu;                 // banned ident
std::atomic<int> g_count{0};     // banned ident
std::condition_variable g_cv;    // banned ident

void Spawn() {
  std::thread worker([] { g_count.store(1); });  // banned ident
  std::this_thread::yield();                     // banned ident
  worker.join();
}

}  // namespace bad
