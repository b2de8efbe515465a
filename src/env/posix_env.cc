// PosixEnv: the real-filesystem environment.
#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <thread>

#include "src/env/env.h"

namespace pipelsm {

namespace {

Status PosixError(const std::string& context, int err) {
  if (err == ENOENT) {
    return Status::NotFound(context, std::strerror(err));
  }
  return Status::IOError(context, std::strerror(err));
}

class PosixSequentialFile final : public SequentialFile {
 public:
  PosixSequentialFile(std::string fname, int fd)
      : fname_(std::move(fname)), fd_(fd) {}
  ~PosixSequentialFile() override { ::close(fd_); }

  Status Read(size_t n, Slice* result, char* scratch) override {
    while (true) {
      ::ssize_t r = ::read(fd_, scratch, n);
      if (r < 0) {
        if (errno == EINTR) continue;
        return PosixError(fname_, errno);
      }
      *result = Slice(scratch, r);
      return Status::OK();
    }
  }

 private:
  const std::string fname_;
  const int fd_;
};

class PosixRandomAccessFile final : public RandomAccessFile {
 public:
  PosixRandomAccessFile(std::string fname, int fd)
      : fname_(std::move(fname)), fd_(fd) {}
  ~PosixRandomAccessFile() override { ::close(fd_); }

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    // pread may return short on signals (and is allowed to return less
    // than n in general); accumulate until n bytes or EOF so callers can
    // treat a short *result* as end-of-file, not a transient hiccup.
    size_t done = 0;
    while (done < n) {
      ::ssize_t r = ::pread(fd_, scratch + done, n - done,
                            static_cast<off_t>(offset + done));
      if (r < 0) {
        if (errno == EINTR) continue;
        return PosixError(fname_, errno);
      }
      if (r == 0) break;  // EOF
      done += static_cast<size_t>(r);
    }
    *result = Slice(scratch, done);
    return Status::OK();
  }

 private:
  const std::string fname_;
  const int fd_;
};

class PosixWritableFile final : public WritableFile {
 public:
  PosixWritableFile(std::string fname, int fd)
      : fname_(std::move(fname)), fd_(fd) {}
  ~PosixWritableFile() override {
    if (fd_ >= 0) Close();
  }

  Status Append(const Slice& data) override {
    const char* p = data.data();
    size_t left = data.size();
    while (left > 0) {
      ::ssize_t r = ::write(fd_, p, left);
      if (r < 0) {
        if (errno == EINTR) continue;
        return PosixError(fname_, errno);
      }
      p += r;
      left -= r;
    }
    return Status::OK();
  }

  Status Close() override {
    Status s;
    if (fd_ >= 0 && ::close(fd_) < 0) {
      s = PosixError(fname_, errno);
    }
    fd_ = -1;
    return s;
  }

  Status Flush() override { return Status::OK(); }

  Status Sync() override {
    int rc;
    do {
      rc = ::fdatasync(fd_);
    } while (rc < 0 && errno == EINTR);
    if (rc < 0) {
      return PosixError(fname_, errno);
    }
    return Status::OK();
  }

 private:
  const std::string fname_;
  int fd_;
};

class PosixEnv final : public Env {
 public:
  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    int fd = ::open(fname.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      result->reset();
      return PosixError(fname, errno);
    }
    result->reset(new PosixSequentialFile(fname, fd));
    return Status::OK();
  }

  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    int fd = ::open(fname.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      result->reset();
      return PosixError(fname, errno);
    }
    result->reset(new PosixRandomAccessFile(fname, fd));
    return Status::OK();
  }

  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    int fd = ::open(fname.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                    0644);
    if (fd < 0) {
      result->reset();
      return PosixError(fname, errno);
    }
    result->reset(new PosixWritableFile(fname, fd));
    return Status::OK();
  }

  Status NewAppendableFile(const std::string& fname,
                           std::unique_ptr<WritableFile>* result) override {
    int fd = ::open(fname.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                    0644);
    if (fd < 0) {
      result->reset();
      return PosixError(fname, errno);
    }
    result->reset(new PosixWritableFile(fname, fd));
    return Status::OK();
  }

  bool FileExists(const std::string& fname) override {
    return ::access(fname.c_str(), F_OK) == 0;
  }

  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    result->clear();
    ::DIR* d = ::opendir(dir.c_str());
    if (d == nullptr) {
      return PosixError(dir, errno);
    }
    struct ::dirent* entry;
    while ((entry = ::readdir(d)) != nullptr) {
      std::string name = entry->d_name;
      if (name != "." && name != "..") {
        result->push_back(std::move(name));
      }
    }
    ::closedir(d);
    return Status::OK();
  }

  Status RemoveFile(const std::string& fname) override {
    if (::unlink(fname.c_str()) != 0) {
      return PosixError(fname, errno);
    }
    return Status::OK();
  }

  Status CreateDir(const std::string& dirname) override {
    if (::mkdir(dirname.c_str(), 0755) != 0 && errno != EEXIST) {
      return PosixError(dirname, errno);
    }
    return Status::OK();
  }

  Status RemoveDir(const std::string& dirname) override {
    if (::rmdir(dirname.c_str()) != 0) {
      return PosixError(dirname, errno);
    }
    return Status::OK();
  }

  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    struct ::stat st;
    if (::stat(fname.c_str(), &st) != 0) {
      *size = 0;
      return PosixError(fname, errno);
    }
    *size = st.st_size;
    return Status::OK();
  }

  Status RenameFile(const std::string& src,
                    const std::string& target) override {
    if (::rename(src.c_str(), target.c_str()) != 0) {
      return PosixError(src, errno);
    }
    return Status::OK();
  }

  Status SyncDir(const std::string& dirname) override {
    int fd = ::open(dirname.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      return PosixError(dirname, errno);
    }
    Status s;
    int rc;
    do {
      rc = ::fsync(fd);
    } while (rc < 0 && errno == EINTR);
    if (rc < 0) {
      s = PosixError(dirname, errno);
    }
    ::close(fd);
    return s;
  }

  uint64_t NowMicros() override {
    struct ::timeval tv;
    ::gettimeofday(&tv, nullptr);
    return static_cast<uint64_t>(tv.tv_sec) * 1000000 + tv.tv_usec;
  }

  void SleepForMicroseconds(int micros) override {
    std::this_thread::sleep_for(std::chrono::microseconds(micros));
  }
};

}  // namespace

Env* Env::Posix() {
  static PosixEnv env;
  return &env;
}

}  // namespace pipelsm
